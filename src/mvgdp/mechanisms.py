"""Differentially private mechanisms for matrix-valued queries.

The two main entry points add matrix-variate Gaussian noise whose variance is
distributed unevenly across a caller-chosen orthonormal set of directions:

* :func:`mvg_unimodal` puts directional noise on the rows and i.i.d. noise on
  the columns. Appropriate for rectangular queries such as the identity query
  where the columns are records with no prior ordering of quality. The
  column-directional case is obtained by transposing the query before and
  after; it is not a separate code path.
* :func:`mvg_equimodal` uses the same covariance for rows and columns.
  Recommended for symmetric square queries (covariance, kernel, adjacency,
  Laplacian matrices); the privacy guarantee itself does not require
  symmetry, so a non-symmetric input only triggers a warning.

Both spend the full precision budget: the produced design always saturates
the privacy condition, and a post-construction check enforces that. I.i.d.
Gaussian and Laplace baselines, a differentially private direction-derivation
helper, and a Monte Carlo diagnostic for the underlying trace inequality
round out the module.

Every function is pure given its inputs and the random stream; concurrent
calls need distinct streams.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .budget import (
    BudgetReport,
    PrivacyParams,
    QuerySpec,
    check_condition,
    precision_budget_equimodal,
    precision_budget_unimodal,
    zeta,
)
from .design import NoiseDesign, factor_design
from .errors import (
    AllocationError,
    ConditionCheckError,
    ContractViolationError,
    DomainError,
    ShapeError,
)
from .sampling import RandomStream, sample_mvg, sample_standard_matrix
from .sensitivity import DataBounds, covariance_sensitivity

# Floor applied to allocation entries so no direction's noise variance is
# numerically infinite.
THETA_FLOOR = 1e-6

# Relative slack on the caller's Frobenius-norm claim for the query value.
GAMMA_RTOL = 1e-9

_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class PrecisionAllocation:
    """Normalized shares of the precision budget, one per noise direction.

    Entries are floored at 1e-6 and rescaled to sum to exactly 1 on
    construction; a zero or negative share is rejected because every
    direction must receive some noise.
    """

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float).reshape(-1)
        if t.size < 1:
            raise AllocationError("theta must have at least one entry")
        if not np.all(np.isfinite(t)):
            raise AllocationError(f"theta must be finite, got {t}")
        if np.any(t <= 0):
            raise AllocationError(
                f"every allocation share must be positive, got {t}; noise is "
                "required in every direction"
            )
        t = np.maximum(t, THETA_FLOOR)
        t = t / t.sum()
        object.__setattr__(self, "theta", t)

    def __len__(self) -> int:
        return self.theta.size

    @classmethod
    def uniform(cls, m: int) -> "PrecisionAllocation":
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise AllocationError(f"m must be a positive integer, got {m!r}")
        return cls(np.full(int(m), 1.0 / m))

    @classmethod
    def binary(cls, m: int, tau: float, favored) -> "PrecisionAllocation":
        """Give a fraction tau of the budget equally to the favored direction
        indices and the remainder equally to the rest."""
        if not isinstance(m, (int, np.integer)) or m < 2:
            raise AllocationError(
                f"binary allocation needs at least two directions, got m={m!r}"
            )
        if not 0.0 < tau < 1.0:
            raise AllocationError(f"tau must lie in (0, 1), got {tau}")
        fav = sorted(set(int(i) for i in favored))
        if not fav:
            raise AllocationError("favored index set must not be empty")
        if fav[0] < 0 or fav[-1] >= m:
            raise AllocationError(f"favored indices {fav} out of range [0, {m})")
        if len(fav) >= m:
            raise AllocationError("favored set must leave at least one other direction")
        t = np.full(int(m), (1.0 - tau) / (m - len(fav)))
        t[fav] = tau / len(fav)
        return cls(t)


@dataclass(frozen=True)
class PerturbResult:
    """A perturbed query value plus everything needed to reproduce it."""

    output: np.ndarray
    design: NoiseDesign
    budget: BudgetReport
    seed: int


def _validate_query_value(query_value, q: QuerySpec) -> np.ndarray:
    value = np.asarray(query_value, dtype=float)
    if value.shape != (q.m, q.n):
        raise ShapeError(
            f"query value has shape {value.shape}, expected ({q.m}, {q.n})"
        )
    fro = float(np.linalg.norm(value))
    if fro > q.gamma * (1.0 + GAMMA_RTOL):
        raise ContractViolationError(
            f"query value has Frobenius norm {fro:.6g}, exceeding the declared "
            f"gamma = {q.gamma:.6g}; the gamma claim is false and clipping "
            "would silently change the query"
        )
    return value


def _assert_condition(design: NoiseDesign, q: QuerySpec, p: PrivacyParams) -> None:
    holds, lhs, rhs = check_condition(design, q, p)
    if not holds:
        raise ConditionCheckError(
            f"constructed design violates the privacy condition "
            f"(lhs={lhs:.12g} > rhs={rhs:.12g}); this is a bug"
        )


def _directional_lambdas(theta: PrecisionAllocation, budget: float) -> np.ndarray:
    # Each direction's noise variance is the inverse square root of its
    # precision share, so the inverse-variance total spends the budget exactly.
    return 1.0 / np.sqrt(theta.theta * budget)


def mvg_unimodal(query_value, q: QuerySpec, p: PrivacyParams,
                 theta: PrecisionAllocation, w_sigma, stream: RandomStream) -> PerturbResult:
    """Perturb a query with row-directional, column-i.i.d. matrix noise.

    Args:
        query_value: the m x n query answer f(X).
        q: query shape, sensitivity and norm bound.
        p: privacy target.
        theta: precision shares for the m row directions.
        w_sigma: m x m orthonormal matrix whose columns are the directions.
        stream: random stream; consumes exactly m*n normal draws.

    Returns:
        The perturbed value together with the noise design, the budget report
        and the stream's seed.

    The column side of the design is the standard basis with unit singular
    values, stored as its singular values only, so a release costs
    O(m^2 n) time and O(mn) memory: nothing scales as n^2 or n^3.
    """
    value = _validate_query_value(query_value, q)
    if len(theta) != q.m:
        raise AllocationError(
            f"theta has {len(theta)} entries but the query has {q.m} rows"
        )
    report = precision_budget_unimodal(q, p)
    lam_sigma = _directional_lambdas(theta, report.precision_budget)
    design = NoiseDesign(w_sigma, lam_sigma, None, np.ones(q.n))
    _assert_condition(design, q, p)
    output = value + sample_mvg(stream, design)
    return PerturbResult(output=output, design=design, budget=report, seed=stream.seed)


def mvg_equimodal(query_value, q: QuerySpec, p: PrivacyParams,
                  theta: PrecisionAllocation, w_sigma, stream: RandomStream) -> PerturbResult:
    """Perturb a square query with identical row and column directional noise.

    Intended for symmetric queries; a query value that is not symmetric
    within 1e-8 only triggers a warning because the guarantee does not need
    symmetry, only the utility argument does.
    """
    if q.m != q.n:
        raise ShapeError(f"equi-modal noise needs a square query, got {q.m}x{q.n}")
    value = _validate_query_value(query_value, q)
    if len(theta) != q.m:
        raise AllocationError(
            f"theta has {len(theta)} entries but the query has {q.m} rows"
        )
    asym = float(np.max(np.abs(value - value.T))) if value.size else 0.0
    if asym > _SYMMETRY_TOL:
        warnings.warn(
            f"equi-modal noise is recommended for symmetric queries; the query "
            f"value deviates from symmetry by {asym:.3e}",
            stacklevel=2,
        )
    report = precision_budget_equimodal(q, p)
    lam = _directional_lambdas(theta, report.precision_budget)
    design = NoiseDesign(w_sigma, lam, w_sigma, lam)
    _assert_condition(design, q, p)
    output = value + sample_mvg(stream, design)
    return PerturbResult(output=output, design=design, budget=report, seed=stream.seed)


def gaussian_noise_scale(sensitivity: float, p: PrivacyParams) -> float:
    """Per-entry standard deviation of the classic Gaussian mechanism.

    sigma = s2 * sqrt(2 * ln(1.25 / delta)) / epsilon. The classic analysis
    assumes epsilon <= 1; larger values are accepted with a warning since
    they only appear in vanishing-noise sanity checks.
    """
    if sensitivity <= 0:
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    if p.epsilon > 1.0:
        warnings.warn(
            f"the classic Gaussian-mechanism bound assumes epsilon <= 1, "
            f"got epsilon = {p.epsilon}",
            stacklevel=2,
        )
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / p.delta)) / p.epsilon


def gaussian_iid_baseline(query_value, q: QuerySpec, p: PrivacyParams,
                          stream: RandomStream) -> np.ndarray:
    """Classic Gaussian mechanism: i.i.d. noise scaled to the L2 sensitivity.

    Equals the matrix-Gaussian sampler with Sigma = sigma^2 * I and Psi = I
    under shared draws, entry for entry.
    """
    value = np.asarray(query_value, dtype=float)
    if value.shape != (q.m, q.n):
        raise ShapeError(
            f"query value has shape {value.shape}, expected ({q.m}, {q.n})"
        )
    sigma = gaussian_noise_scale(q.sensitivity, p)
    return value + sigma * sample_standard_matrix(stream, q.m, q.n)


def laplace_iid_baseline(query_value, q: QuerySpec, epsilon: float,
                         l1_sensitivity: float, stream: RandomStream) -> np.ndarray:
    """Classic Laplace mechanism: i.i.d. noise with scale l1_sensitivity / epsilon.

    The L1 sensitivity is a separate input because it is a different quantity
    from the Frobenius sensitivity carried by the query spec.
    """
    value = np.asarray(query_value, dtype=float)
    if value.shape != (q.m, q.n):
        raise ShapeError(
            f"query value has shape {value.shape}, expected ({q.m}, {q.n})"
        )
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not (math.isfinite(l1_sensitivity) and l1_sensitivity > 0):
        raise DomainError(f"l1_sensitivity must be positive, got {l1_sensitivity}")
    scale = l1_sensitivity / epsilon
    return value + stream.laplace(scale, (q.m, q.n))


def derive_directions_dp(data, p_fraction: PrivacyParams, k: int,
                         stream: RandomStream, *, bounds: DataBounds) -> np.ndarray:
    """Derive noise directions privately from the data's covariance.

    Spends the given budget slice on a Gaussian-mechanism perturbation of the
    sample covariance X X^T / N, then eigendecomposes the (symmetrized)
    result. Returns the full M x M orthonormal eigenbasis sorted by
    descending eigenvalue; the first k columns are the principal directions.
    Eigendecomposition is post-processing, so the slice is the whole cost.

    Args:
        data: M x N matrix with records as columns.
        p_fraction: the budget slice to spend, e.g. (0.2*eps, 0.2*delta).
        k: number of leading directions the caller intends to favor; must
            not exceed M.
        stream: random stream for the covariance perturbation.
        bounds: declared per-entry range; the covariance sensitivity comes
            from here, never from the data itself.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"data must be a 2-D matrix, got ndim={x.ndim}")
    num_features, num_samples = x.shape
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ShapeError(f"k must be a positive integer, got {k!r}")
    if k > num_features:
        raise ShapeError(f"k = {k} exceeds the number of features {num_features}")
    if (bounds.num_features, bounds.num_samples) != (num_features, num_samples):
        raise ShapeError(
            f"bounds declare {bounds.num_features}x{bounds.num_samples} but the "
            f"data is {num_features}x{num_samples}"
        )
    if np.any(x < bounds.lo) or np.any(x > bounds.hi):
        raise ContractViolationError(
            f"data values fall outside the declared range [{bounds.lo}, {bounds.hi}]"
        )
    s2 = covariance_sensitivity(bounds)
    sigma = gaussian_noise_scale(s2, p_fraction)
    cov = x @ x.T / num_samples
    noisy = cov + sigma * sample_standard_matrix(stream, num_features, num_features)
    sym = (noisy + noisy.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(-eigvals, kind="stable")
    return eigvecs[:, order]


def mvg_verify_characteristic(q: QuerySpec, p: PrivacyParams, design: NoiseDesign,
                              trials: int, stream: RandomStream) -> tuple[float, float]:
    """Monte Carlo check of the trace inequality behind the privacy proof.

    Synthesizes a worst-case neighboring pair: both query values and their
    difference are rank-one, with Frobenius norms gamma and s2 respectively,
    aligned with the most precise (least noisy) direction on each side. For
    each trial a standard-normal matrix is drawn; trials whose squared
    Frobenius norm stays within zeta(delta)^2 form the conditioning event,
    and within it the four-term trace expression is compared against
    2*epsilon.

    Returns:
        (conditional_pass_rate, r1_rate): the pass fraction among conditioned
        trials (NaN if no trial lands inside the event) and the fraction of
        trials inside the event. Purely diagnostic; a design that violates
        the sufficient condition may still pass, so nothing is asserted here.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    if design.m != q.m or design.n != q.n:
        raise ShapeError(
            f"design is {design.m}x{design.n} but the query is {q.m}x{q.n}"
        )
    m, n = q.m, q.n
    u = design.w_sigma[:, int(np.argmin(design.lambda_sigma))]
    v = design.w_psi[:, int(np.argmin(design.lambda_psi))]
    f_x1 = q.gamma * np.outer(u, v)
    delta_q = q.sensitivity * np.outer(u, v)
    f_x2 = f_x1 - delta_q

    sigma_inv = design.sigma_inv()
    psi_inv = design.psi_inv()
    b_sigma, b_psi = factor_design(design)
    radius_sq = zeta(p.delta, m, n) ** 2

    # tr[Psi^-1 Y^T Sigma^-1 D] = <Y, Sigma^-1 D Psi^-1>; the second trace
    # term equals the first by symmetry of the inverses.
    coupling = sigma_inv @ delta_q @ psi_inv
    const_term = float(
        np.trace(psi_inv @ f_x2.T @ sigma_inv @ f_x2)
        - np.trace(psi_inv @ f_x1.T @ sigma_inv @ f_x1)
    )

    inside = 0
    passed = 0
    remaining = int(trials)
    chunk = 4096
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        draws = stream.standard_normal((batch, m, n))
        norms_sq = np.einsum("tij,tij->t", draws, draws)
        in_event = norms_sq <= radius_sq
        if not np.any(in_event):
            continue
        noise = np.einsum("ab,tbc,dc->tad", b_sigma, draws[in_event], b_psi)
        outputs = f_x1 + noise
        traces = 2.0 * np.einsum("tij,ij->t", outputs, coupling) + const_term
        inside += int(in_event.sum())
        passed += int(np.sum(traces <= 2.0 * p.epsilon))
    r1_rate = inside / trials
    conditional = passed / inside if inside else float("nan")
    return conditional, r1_rate

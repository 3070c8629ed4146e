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
the privacy condition, and a post-construction check enforces that. The
check reads only the singular values, which depend on the query spec, the
privacy target, the allocation and the mode alone, so it runs once per such
key: :func:`release_spectrum` memoizes the budget, the singular values and
the verdict, and each plan checks only its value and its basis. I.i.d.
Gaussian and Laplace baselines, planned and drawn the same way, a
differentially private direction-derivation helper, and a Monte Carlo
diagnostic for the underlying trace inequality round out the module.

Every function is pure given its inputs and the random stream; concurrent
calls need distinct streams.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .budget import (
    TERMS_CACHE_SIZE,
    BudgetMode,
    BudgetReport,
    ConditionCheck,
    PrivacyParams,
    QuerySpec,
    check_condition,
    precision_budget_equimodal,
    precision_budget_unimodal,
    zeta,
)
from .design import NoiseDesign, check_orthonormal
from .errors import (
    AllocationError,
    ConditionCheckError,
    ConfigError,
    ContractViolationError,
    DomainError,
    ShapeError,
    is_count,
)
# sample_mvg is not called here; perfbench/tracing.py patches the name here.
from .sampling import (  # noqa: F401
    RandomStream,
    sample_mvg,
    sample_standard_matrix,
)
from .sensitivity import AuditedGram, DataBounds, covariance_sensitivity

# Floor applied to allocation entries so no direction's noise variance is
# numerically infinite.
THETA_FLOOR = 1e-6

# Relative slack on the caller's Frobenius-norm claim for the query value.
GAMMA_RTOL = 1e-9

_SYMMETRY_TOL = 1e-8

# Entries of the largest stack a batched draw builds: 4096 float64, 32 KiB
# per temporary, well under glibc malloc's 128 KiB mmap threshold. Larger
# chunks raised a long dp-directions run's peak RSS in an earlier version;
# this size keeps a run's working memory to a few hundred KiB.
CHUNK_ENTRIES = 4096


@dataclass(frozen=True, eq=False)
class PrecisionAllocation:
    """Normalized shares of the precision budget, one per noise direction.

    Entries are floored at 1e-6 and rescaled to sum to exactly 1 on
    construction; a zero or negative share is rejected because every
    direction must receive some noise. ``theta`` is read-only. Two
    allocations are equal, and hash alike, when their normalized shares
    are, so an allocation can key a cache.
    """

    theta: np.ndarray
    _shares: bytes = field(init=False, repr=False)

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
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)
        # every share is positive and finite, so equal bytes are equal values
        object.__setattr__(self, "_shares", t.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrecisionAllocation):
            return NotImplemented
        return self._shares == other._shares

    def __hash__(self) -> int:
        return hash(self._shares)

    def __len__(self) -> int:
        return self.theta.size

    @classmethod
    def uniform(cls, m: int) -> "PrecisionAllocation":
        if not is_count(m) or m < 1:
            raise AllocationError(f"m must be a positive integer, got {m!r}")
        return cls(np.full(int(m), 1.0 / m))

    @classmethod
    def binary(cls, m: int, tau: float, favored) -> "PrecisionAllocation":
        """Give a fraction tau of the budget equally to the favored direction
        indices and the remainder equally to the rest."""
        if not is_count(m) or m < 2:
            raise AllocationError(
                f"binary allocation needs at least two directions, got m={m!r}"
            )
        fav = _binary_favored(tau, favored)
        if fav[0] < 0 or fav[-1] >= m:
            raise AllocationError(f"favored indices {fav} out of range [0, {m})")
        if len(fav) >= m:
            raise AllocationError("favored set must leave at least one other direction")
        t = np.full(int(m), (1.0 - tau) / (m - len(fav)))
        t[fav] = tau / len(fav)
        return cls(t)


def _binary_favored(tau: float, favored) -> list[int]:
    """The sorted, distinct favored indices of a binary allocation, after its
    checks that need no m (tau in (0, 1), some index favored), which the
    harness's allocation grammar makes before a dataset fixes m."""
    if not 0.0 < tau < 1.0:
        raise AllocationError(f"tau must lie in (0, 1), got {tau}")
    fav = sorted(set(int(i) for i in favored))
    if not fav:
        raise AllocationError("favored index set must not be empty")
    return fav


@dataclass(frozen=True)
class PerturbResult:
    """A perturbed query value plus everything needed to reproduce it."""

    output: np.ndarray
    design: NoiseDesign
    budget: BudgetReport
    seed: int


def _check_shape(query_value, q: QuerySpec) -> np.ndarray:
    """The query value as a float array, if it has the query's m x n shape."""
    value = np.asarray(query_value, dtype=float)
    if value.shape != (q.m, q.n):
        raise ShapeError(
            f"query value has shape {value.shape}, expected ({q.m}, {q.n})"
        )
    return value


def _validate_query_value(query_value, q: QuerySpec) -> np.ndarray:
    value = _check_shape(query_value, q)
    # np.linalg.norm's own Frobenius formula, without its dispatch
    flat = value.ravel("K")
    fro = math.sqrt(flat @ flat)
    # written so a NaN norm fails the check too
    if not fro <= q.gamma * (1.0 + GAMMA_RTOL):
        raise ContractViolationError(
            f"query value has Frobenius norm {fro:.6g}, exceeding the declared "
            f"gamma = {q.gamma:.6g}; the gamma claim is false and clipping "
            "would silently change the query"
        )
    return value


def _check_allocation(theta: PrecisionAllocation, q: QuerySpec) -> None:
    if len(theta) != q.m:
        raise AllocationError(
            f"theta has {len(theta)} entries but the query has {q.m} rows"
        )


def _directional_lambdas(theta: PrecisionAllocation, budget: float) -> np.ndarray:
    # Each direction's noise variance is the inverse square root of its
    # precision share, so the inverse-variance total spends the budget exactly.
    return 1.0 / np.sqrt(theta.theta * budget)


def trials_per_chunk(m: int, n: int) -> int:
    """Trials drawn together so no (T, m, m) or (T, m, n) stack of a chunk
    exceeds ``CHUNK_ENTRIES``; at least one."""
    return max(1, CHUNK_ENTRIES // (m * max(m, n)))


def standard_normal_stacks(streams, shapes) -> list[np.ndarray]:
    """Draw one standard-normal matrix of each shape from every stream.

    Each stream gives its draws in the order of ``shapes``, through
    :func:`sample_standard_matrix` straight into its row of the stack, so
    trial t consumes exactly what a single release on its stream would.
    Returns one (T, *shape) stack per shape.
    """
    stacks = [np.empty((len(streams),) + tuple(shape)) for shape in shapes]
    for t, stream in enumerate(streams):
        for stack in stacks:
            sample_standard_matrix(stream, *stack.shape[1:], out=stack[t])
    return stacks


class _TwoStepPlan:
    """A plan whose :meth:`draw` is two steps: ``draw_noise(streams)``,
    the only step that consumes the streams, then ``color(*noise)``, which
    takes over the noise stack and returns the releases."""

    def draw(self, streams) -> np.ndarray:
        """Release the value once per stream, stacked to (T, m, n).

        Trial t draws from ``streams[t]`` alone, so each trial's output has
        the bits of a release made on its own stream; keep
        ``len(streams)`` within :func:`trials_per_chunk` to bound memory.
        """
        return self.color(*self.draw_noise(streams))


@dataclass(frozen=True)
class ReleasePlan(_TwoStepPlan):
    """Everything an MVG release fixes before it draws.

    Built once by :func:`plan_unimodal` or :func:`plan_equimodal`, which
    validate the query value and the basis and take the budget, the
    singular values and the privacy condition's verdict from
    :func:`release_spectrum`. The condition reads only the singular values,
    q and p, so its one verdict holds for every trial, including trials
    whose directions are drawn. :meth:`draw` is the per-trial step.

    Attributes:
        value: the validated m x n query value.
        query: the query spec.
        budget: the precision-budget report.
        design: the noise design. With ``directions`` set, its bases are
            ``None`` and only its singular values are used; each trial
            draws its own row basis (and column basis, if equi-modal).
        condition: the privacy condition's check of the design.
        directions: the private direction derivation the trials draw from,
            or ``None`` when the bases are fixed.
    """

    value: np.ndarray
    query: QuerySpec
    budget: BudgetReport
    design: NoiseDesign
    condition: ConditionCheck
    directions: DirectionsPlan | None = None

    def draw_noise(self, streams) -> tuple[np.ndarray, np.ndarray | None]:
        """Trial t's draws from ``streams[t]``, in the order a single release
        makes them: the direction noise first (M*M normals, when the
        directions are drawn), then m*n normals for the mechanism.

        Returns the (T, m, n) standard-normal stack and, when the directions
        are drawn, the (T, m, m) stack of each trial's row basis (checked
        orthonormal), else ``None``. Every plan over the same query and
        :class:`DirectionsPlan` draws the same, so plans that differ only in
        their allocation can color one draw each.
        """
        m, n = self.query.m, self.query.n
        if self.directions is None:
            (noise,) = standard_normal_stacks(streams, [(m, n)])
            return noise, None
        direction_noise, noise = standard_normal_stacks(streams, [(m, m), (m, n)])
        bases = self.directions.bases(direction_noise)
        del direction_noise
        check_orthonormal(bases, "w_sigma")
        return noise, bases

    def color(self, noise: np.ndarray, bases: np.ndarray | None) -> np.ndarray:
        """The releases for a :meth:`draw_noise` result: the noise colored
        by this plan's design, plus the value.

        ``bases`` replaces the design's row basis (and column basis, if
        equi-modal) when it is not ``None``. The design may scale ``noise``
        in place, so the caller hands over the array.
        """
        equimodal = self.budget.mode is BudgetMode.EQUI_MODAL
        output = self.design.color(noise, bases, bases if equimodal else None)
        output += self.value
        return output


class ReleaseSpectrum(NamedTuple):
    """What an MVG release fixes from its query spec, privacy target,
    allocation and mode alone: the budget, the singular values and the
    privacy condition's verdict on them.

    ``design`` has standard bases on both sides and read-only singular
    values; a plan attaches its own bases with :meth:`NoiseDesign.with_bases`.
    """

    budget: BudgetReport
    design: NoiseDesign
    condition: ConditionCheck


@functools.lru_cache(maxsize=TERMS_CACHE_SIZE)
def release_spectrum(q: QuerySpec, p: PrivacyParams, theta: PrecisionAllocation,
                     mode: BudgetMode) -> ReleaseSpectrum:
    """The budget, singular values and condition check of every MVG release
    over one (q, p, theta, mode).

    Memoized on that frozen key, so the singular values are validated and
    the condition checked once per key. A violated condition raises on
    every call, since an exception is never cached. An entry holds O(m)
    floats: a unimodal design's unit column side is one read-only 1.0
    broadcast to n entries.
    """
    _check_allocation(theta, q)
    if mode is BudgetMode.UNIMODAL:
        report = precision_budget_unimodal(q, p)
    else:
        report = precision_budget_equimodal(q, p)
    lam_sigma = _directional_lambdas(theta, report.precision_budget)
    # read-only, so no caller can change what later releases draw with
    lam_sigma.flags.writeable = False
    if mode is BudgetMode.UNIMODAL:
        lam_psi = np.broadcast_to(1.0, q.n)
    else:
        lam_psi = lam_sigma
    design = NoiseDesign(None, lam_sigma, None, lam_psi)
    condition = check_condition(design, q, p)
    if not condition.holds:
        raise ConditionCheckError(
            f"constructed design violates the privacy condition "
            f"(lhs={condition.lhs:.12g} > rhs={condition.rhs:.12g}); this is a bug"
        )
    return ReleaseSpectrum(report, design, condition)


def _plan(value: np.ndarray, q: QuerySpec, p: PrivacyParams,
          theta: PrecisionAllocation, mode: BudgetMode, w_sigma) -> ReleasePlan:
    directions = None
    if isinstance(w_sigma, DirectionsPlan):
        directions, w_sigma = w_sigma, None
        if directions.covariance.shape != (q.m, q.m):
            raise ShapeError(
                f"directions are drawn for {directions.covariance.shape[0]} "
                f"features but the query has {q.m} rows"
            )
    report, design, condition = release_spectrum(q, p, theta, mode)
    if w_sigma is not None:
        design = design.with_bases(
            w_sigma, w_sigma if mode is BudgetMode.EQUI_MODAL else None)
    return ReleasePlan(value, q, report, design, condition, directions)


def plan_unimodal(query_value, q: QuerySpec, p: PrivacyParams,
                  theta: PrecisionAllocation, w_sigma) -> ReleasePlan:
    """Plan row-directional, column-i.i.d. releases of one query value.

    Takes :func:`mvg_unimodal`'s arguments except the stream. ``w_sigma``
    may also be a :class:`DirectionsPlan`, from which each trial draws its
    own row basis.
    """
    value = _validate_query_value(query_value, q)
    return _plan(value, q, p, theta, BudgetMode.UNIMODAL, w_sigma)


def plan_equimodal(query_value, q: QuerySpec, p: PrivacyParams,
                   theta: PrecisionAllocation, w_sigma) -> ReleasePlan:
    """Plan releases of one square query value with identical row and
    column directional noise.

    Takes :func:`mvg_equimodal`'s arguments except the stream. ``w_sigma``
    may also be a :class:`DirectionsPlan`, from which each trial draws its
    own basis for both sides.
    """
    if q.m != q.n:
        raise ShapeError(f"equi-modal noise needs a square query, got {q.m}x{q.n}")
    value = _validate_query_value(query_value, q)
    # equal bytes, as in a computed covariance, tell exact symmetry at once;
    # a - b is exactly -(b - a), so the largest entry is the largest deviation
    if value.tobytes() != value.T.tobytes():
        asym = float((value - value.T).max())
        if asym > _SYMMETRY_TOL:
            warnings.warn(
                f"equi-modal noise is recommended for symmetric queries; the "
                f"query value deviates from symmetry by {asym:.3e}",
                stacklevel=2,
            )
    return _plan(value, q, p, theta, BudgetMode.EQUI_MODAL, w_sigma)


def _release(plan: ReleasePlan, stream: RandomStream) -> PerturbResult:
    if plan.directions is not None:
        # the result's design could not name the basis the draw used
        raise ConfigError(
            "a single release takes a fixed w_sigma, not a DirectionsPlan: draw "
            "one with derive_directions_dp, or draw per trial from "
            "plan_unimodal/plan_equimodal"
        )
    return PerturbResult(output=plan.draw([stream])[0], design=plan.design,
                         budget=plan.budget, seed=stream.seed)


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
    values, stored as its singular values only and never applied. With
    identity or standard rows (``np.eye(m)`` is recognized exactly) a
    release costs O(mn) time and allocates only its m x n output; any other
    basis adds an O(m^2) check, an O(m^2 n) product and one more m x n
    array. Nothing scales as n^2 or n^3.
    Equivalent to ``plan_unimodal(...).draw([stream])``; repeated releases
    of one value should plan once and draw per trial.
    """
    return _release(plan_unimodal(query_value, q, p, theta, w_sigma), stream)


def mvg_equimodal(query_value, q: QuerySpec, p: PrivacyParams,
                  theta: PrecisionAllocation, w_sigma, stream: RandomStream) -> PerturbResult:
    """Perturb a square query with identical row and column directional noise.

    Intended for symmetric queries; a query value that is not symmetric
    within 1e-8 only triggers a warning because the guarantee does not need
    symmetry, only the utility argument does. Equivalent to
    ``plan_equimodal(...).draw([stream])``.
    """
    return _release(plan_equimodal(query_value, q, p, theta, w_sigma), stream)


def gaussian_noise_scale(sensitivity: float, p: PrivacyParams) -> float:
    """Per-entry standard deviation of the classic Gaussian mechanism.

    sigma = s2 * sqrt(2 * ln(1.25 / delta)) / epsilon. The classic analysis
    assumes epsilon <= 1; larger values are accepted with a warning since
    they only appear in vanishing-noise sanity checks.
    """
    if not (math.isfinite(sensitivity) and sensitivity > 0):
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    if p.epsilon > 1.0:
        warnings.warn(
            f"the classic Gaussian-mechanism bound assumes epsilon <= 1, "
            f"got epsilon = {p.epsilon}",
            stacklevel=2,
        )
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / p.delta)) / p.epsilon


@dataclass(frozen=True)
class GaussianPlan(_TwoStepPlan):
    """Classic Gaussian releases of one validated query value: i.i.d. noise
    of sd ``scale`` on every entry. Built by :func:`plan_gaussian`."""

    value: np.ndarray
    scale: float

    def draw_noise(self, streams) -> tuple[np.ndarray]:
        """Trial t's m*n standard normals from ``streams[t]`` alone, as one
        (T, m, n) stack."""
        return tuple(standard_normal_stacks(streams, [self.value.shape]))

    def color(self, noise: np.ndarray) -> np.ndarray:
        """Scale ``noise`` in place to sd ``scale`` and add the value."""
        noise *= self.scale
        noise += self.value
        return noise


@dataclass(frozen=True)
class LaplacePlan(_TwoStepPlan):
    """Classic Laplace releases of one validated query value: i.i.d. noise
    of scale ``scale`` on every entry. Built by :func:`plan_laplace`."""

    value: np.ndarray
    scale: float

    def draw_noise(self, streams) -> tuple[np.ndarray]:
        """Trial t's m*n Laplace variates from ``streams[t]`` alone, as one
        (T, m, n) stack."""
        return (np.stack([stream.laplace(self.scale, self.value.shape)
                          for stream in streams]),)

    def color(self, noise: np.ndarray) -> np.ndarray:
        """Add the value to ``noise`` in place."""
        noise += self.value
        return noise


def plan_gaussian(query_value, q: QuerySpec, p: PrivacyParams) -> GaussianPlan:
    """Plan classic Gaussian releases; takes :func:`gaussian_iid_baseline`'s
    arguments except the stream."""
    return GaussianPlan(_check_shape(query_value, q),
                        gaussian_noise_scale(q.sensitivity, p))


def plan_laplace(query_value, q: QuerySpec, epsilon: float,
                 l1_sensitivity: float) -> LaplacePlan:
    """Plan classic Laplace releases; takes :func:`laplace_iid_baseline`'s
    arguments except the stream."""
    value = _check_shape(query_value, q)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not (math.isfinite(l1_sensitivity) and l1_sensitivity > 0):
        raise DomainError(f"l1_sensitivity must be positive, got {l1_sensitivity}")
    return LaplacePlan(value, l1_sensitivity / epsilon)


def gaussian_iid_baseline(query_value, q: QuerySpec, p: PrivacyParams,
                          stream: RandomStream) -> np.ndarray:
    """Classic Gaussian mechanism: i.i.d. noise scaled to the L2 sensitivity.

    Equals the matrix-Gaussian sampler with Sigma = sigma^2 * I and Psi = I
    under shared draws, entry for entry. Equivalent to
    ``plan_gaussian(...).draw([stream])[0]``.
    """
    return plan_gaussian(query_value, q, p).draw([stream])[0]


def laplace_iid_baseline(query_value, q: QuerySpec, epsilon: float,
                         l1_sensitivity: float, stream: RandomStream) -> np.ndarray:
    """Classic Laplace mechanism: i.i.d. noise with scale l1_sensitivity / epsilon.

    The L1 sensitivity is a separate input because it is a different quantity
    from the Frobenius sensitivity carried by the query spec. Equivalent to
    ``plan_laplace(...).draw([stream])[0]``.
    """
    return plan_laplace(query_value, q, epsilon, l1_sensitivity).draw([stream])[0]


@dataclass(frozen=True)
class DirectionsPlan:
    """The fixed part of a private direction derivation.

    Holds the data's sample covariance and the Gaussian-mechanism noise sd
    for the budget slice; :meth:`draw` is the per-release step. Built by
    :func:`plan_directions_dp`, so the data is audited and its covariance
    computed once however many releases draw from it.
    """

    covariance: np.ndarray
    noise_sd: float

    def draw(self, stream: RandomStream) -> np.ndarray:
        """Perturb the covariance, symmetrize and eigendecompose it.

        Returns the full M x M orthonormal eigenbasis sorted by descending
        eigenvalue. Consumes exactly M*M normal draws from ``stream``.
        """
        m = self.covariance.shape[0]
        return self.bases(sample_standard_matrix(stream, m, m)[np.newaxis])[0]

    def bases(self, noise: np.ndarray) -> np.ndarray:
        """The eigenbases for a stack (T, M, M) of standard-normal draws.

        Scales ``noise`` in place, so the caller hands over the array. One
        batched ``eigh`` decomposes the stack, and a stable argsort along
        the last axis orders each basis's columns by descending eigenvalue;
        each basis has the bits :meth:`draw` gives for its draw.
        """
        noise *= self.noise_sd
        noise += self.covariance
        sym = noise + np.swapaxes(noise, -1, -2)
        sym /= 2.0
        eigvals, eigvecs = np.linalg.eigh(sym)
        del sym
        order = np.argsort(-eigvals, axis=-1, kind="stable")
        # one basis at a time: np.take_along_axis would build index arrays
        # four times the stack's size
        for vecs, columns in zip(eigvecs, order):
            vecs[:] = vecs[:, columns]
        return eigvecs


def plan_directions_dp(data, p_fraction: PrivacyParams, k: int, *,
                       bounds: DataBounds) -> DirectionsPlan:
    """Check the data and fix what every private derivation from it shares.

    Takes the arguments of :func:`derive_directions_dp` except the stream,
    runs the same checks, and returns the plan whose ``draw(stream)`` equals
    ``derive_directions_dp(data, p_fraction, k, stream, bounds=bounds)`` bit
    for bit. ``data`` may also be an :class:`AuditedGram` of the records,
    audited against ``bounds``' own range; it is neither audited nor
    multiplied again.
    """
    if isinstance(data, AuditedGram):
        gram, shape = data, (data.num_features, data.num_samples)
    else:
        x = np.asarray(data, dtype=float)
        if x.ndim != 2:
            raise ShapeError(f"data must be a 2-D matrix, got ndim={x.ndim}")
        gram, shape = None, x.shape
    num_features, num_samples = shape
    if not is_count(k) or k < 1:
        raise ShapeError(f"k must be a positive integer, got {k!r}")
    if k > num_features:
        raise ShapeError(f"k = {k} exceeds the number of features {num_features}")
    if (bounds.num_features, bounds.num_samples) != shape:
        raise ShapeError(
            f"bounds declare {bounds.num_features}x{bounds.num_samples} but the "
            f"data is {num_features}x{num_samples}"
        )
    if gram is None:
        gram = AuditedGram.of(x, bounds.lo, bounds.hi)
    else:
        gram.check_box(bounds.lo, bounds.hi)
    noise_sd = gaussian_noise_scale(covariance_sensitivity(bounds), p_fraction)
    return DirectionsPlan(gram.gram / num_samples, noise_sd)


def derive_directions_dp(data, p_fraction: PrivacyParams, k: int,
                         stream: RandomStream, *, bounds: DataBounds) -> np.ndarray:
    """Derive noise directions privately from the data's covariance.

    Spends the given budget slice on a Gaussian-mechanism perturbation of the
    sample covariance X X^T / N, then eigendecomposes the (symmetrized)
    result. Returns the full M x M orthonormal eigenbasis sorted by
    descending eigenvalue; the first k columns are the principal directions.
    Eigendecomposition is post-processing, so the slice is the whole cost.
    Repeated derivations from the same data should build the plan once with
    :func:`plan_directions_dp` and draw from it.

    Args:
        data: M x N matrix with records as columns.
        p_fraction: the budget slice to spend, e.g. (0.2*eps, 0.2*delta).
        k: number of leading directions the caller intends to favor; must
            not exceed M.
        stream: random stream for the covariance perturbation.
        bounds: declared per-entry range; the covariance sensitivity comes
            from here, never from the data itself.
    """
    return plan_directions_dp(data, p_fraction, k, bounds=bounds).draw(stream)


def mvg_verify_characteristic(q: QuerySpec, p: PrivacyParams, design: NoiseDesign,
                              trials: int, stream: RandomStream) -> tuple[float, float]:
    """Monte Carlo check of the trace inequality behind the privacy proof.

    Synthesizes a worst-case neighboring pair: both query values and their
    difference are rank-one, with Frobenius norms gamma and s2 respectively,
    aligned with the most precise (least noisy) direction on each side. For
    each trial a standard-normal matrix is drawn; trials whose squared
    Frobenius norm stays within zeta(delta) form the conditioning event,
    which holds with probability at least 1 - delta, and within it the
    four-term trace expression is compared against 2*epsilon.

    Returns:
        (conditional_pass_rate, r1_rate): the pass fraction among conditioned
        trials (NaN if no trial lands inside the event) and the fraction of
        trials inside the event. Purely diagnostic; a design that violates
        the sufficient condition may still pass, so nothing is asserted here.

    A standard side is read as its singular values and applied by scaling,
    so a unimodal design's n x n column side is never built: memory is a
    fixed number of m x n arrays.
    """
    if not is_count(trials) or trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    if design.m != q.m or design.n != q.n:
        raise ShapeError(
            f"design is {design.m}x{design.n} but the query is {q.m}x{q.n}"
        )
    m, n = q.m, q.n
    u = _least_noisy_direction(design.basis_sigma, design.lambda_sigma)
    v = _least_noisy_direction(design.basis_psi, design.lambda_psi)
    f_x1 = q.gamma * np.outer(u, v)
    delta_q = q.sensitivity * np.outer(u, v)
    f_x2 = f_x1 - delta_q
    radius_sq = zeta(p.delta, m, n)

    # tr[Psi^-1 A^T Sigma^-1 B] = <A, Sigma^-1 B Psi^-1>; the second trace
    # term equals the first by symmetry of the inverses.
    coupling = _apply_inverses(design, delta_q)
    const_term = float(np.vdot(f_x2, _apply_inverses(design, f_x2))
                       - np.vdot(f_x1, _apply_inverses(design, f_x1)))
    del delta_q, f_x2

    inside = 0
    passed = 0
    remaining = int(trials)
    # draw at most about CHUNK_ENTRIES normals at a time, so memory stays
    # O(mn) for wide queries; batched draws concatenate to the single draw
    # bit for bit, so the rates do not depend on the chunk size
    chunk = max(1, CHUNK_ENTRIES // (m * n))
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        draws = stream.standard_normal((batch, m, n))
        norms_sq = np.einsum("tij,tij->t", draws, draws)
        in_event = norms_sq <= radius_sq
        if not np.any(in_event):
            continue
        outputs = design.color(draws[in_event])
        outputs += f_x1
        traces = 2.0 * np.einsum("tij,ij->t", outputs, coupling) + const_term
        inside += int(in_event.sum())
        passed += int(np.sum(traces <= 2.0 * p.epsilon))
    r1_rate = inside / trials
    conditional = passed / inside if inside else float("nan")
    return conditional, r1_rate


def _least_noisy_direction(basis, lam: np.ndarray) -> np.ndarray:
    """The unit direction of a design side with the smallest singular value."""
    k = int(np.argmin(lam))
    if basis is not None:
        return basis[:, k]
    direction = np.zeros(lam.shape[0])
    direction[k] = 1.0
    return direction


def _apply_inverses(design: NoiseDesign, a: np.ndarray) -> np.ndarray:
    """Sigma^-1 @ a @ Psi^-1, scaling instead of multiplying on a standard side."""
    w_s, lam_s = design.basis_sigma, design.lambda_sigma
    w_p, lam_p = design.basis_psi, design.lambda_psi
    if w_s is None:
        a = a / lam_s[:, np.newaxis]
    else:
        a = ((w_s / lam_s) @ w_s.T) @ a
    if w_p is None:
        return a / lam_p
    return a @ ((w_p / lam_p) @ w_p.T)

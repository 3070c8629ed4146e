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
the verdict, and each plan checks only its value and its basis. The
Gaussian baseline is a :class:`ReleasePlan` too, with Sigma = sigma^2 I and
Psi = I, so every Gaussian release, private directions (the baseline's
release of the data's covariance, eigendecomposed) included, is colored by
:meth:`NoiseDesign.color`. A Laplace baseline rounds out the module.

Every function is pure given its inputs and the random stream; concurrent
calls need distinct streams.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .budget import (
    TERMS_CACHE_SIZE,
    BudgetMode,
    BudgetReport,
    PrivacyParams,
    QuerySpec,
    check_condition,
    exact_delta,
    precision_budget_equimodal,
    precision_budget_unimodal,
)
from .design import NoiseDesign, check_orthonormal, descending_eigh
from .errors import (
    AllocationError,
    ConditionCheckError,
    ConfigError,
    ContractViolationError,
    DomainError,
    ShapeError,
    as_array,
    as_count,
    as_real,
    as_real_array,
    positive_fault,
    symmetry_fault,
)
# sample_mvg is not called here; perfbench/tracing.py patches the name here.
from .sampling import (  # noqa: F401
    RandomStream,
    sample_mvg,
    sample_standard_matrix,
)
from .sensitivity import AuditedGram, DataBounds, covariance_query

# Floor applied to allocation entries so no direction's noise variance is
# numerically infinite.
THETA_FLOOR = 1e-6

# Relative slack on the caller's Frobenius-norm claim for the query value.
GAMMA_RTOL = 1e-9

# Entries of the largest stack a batched draw builds: 4096 float64, 32 KiB
# per temporary, so a run's working memory does not grow with its trials.
# The tests hold a 250-trial dp-directions run's tracemalloc peak to
# 256 KiB, where one stack of all its trials would take 500 KiB per
# temporary.
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
        t = as_real_array(self.theta, "theta shares", AllocationError, ndim=1)
        if fault := positive_fault(t, "every allocation share"):
            raise AllocationError(fault)
        t = np.maximum(t, THETA_FLOOR)
        with np.errstate(over="ignore"):  # finite shares can sum to inf
            total = t.sum()
        if total == np.inf:
            raise AllocationError(f"theta shares must have a finite sum, got {t}")
        t = t / total
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
        m = as_count(m, "m", AllocationError)
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def binary(cls, m: int, tau: float, favored) -> "PrecisionAllocation":
        """Give a fraction tau of the budget equally to the favored direction
        indices and the remainder equally to the rest."""
        m = as_count(m, "m", AllocationError, minimum=2)
        tau, fav = _check_binary(tau, favored)
        if fav[-1] >= m:
            raise AllocationError(f"favored indices {fav} out of range [0, {m})")
        if len(fav) >= m:
            raise AllocationError("favored set must leave at least one other direction")
        t = np.full(m, (1.0 - tau) / (m - len(fav)))
        t[fav] = tau / len(fav)
        return cls(t)


def _check_binary(tau, favored) -> tuple[float, list[int]]:
    """A binary allocation's tau, as a float, and its sorted, distinct
    favored indices, after the checks that need no m (tau in (0, 1), some
    index favored, each an integer >= 0), which the harness's allocation
    grammar makes before a dataset fixes m."""
    tau = as_real(tau, "tau", AllocationError)
    if not 0.0 < tau < 1.0:
        raise AllocationError(f"tau must lie in (0, 1), got {tau}")
    fav = sorted({as_count(i, "favored index", AllocationError, minimum=0)
                  for i in favored})
    if not fav:
        raise AllocationError("favored index set must not be empty")
    return tau, fav


@dataclass(frozen=True, eq=False)
class PerturbResult:
    """A perturbed query value plus everything needed to reproduce it: the
    stream's seed, which is None for a stream from OS entropy. Compared and
    hashed by identity."""

    output: np.ndarray
    design: NoiseDesign
    budget: BudgetReport
    seed: int | None


def _check_shape(query_value, q: QuerySpec) -> np.ndarray:
    """The query value as a float array, if it holds real numbers and has
    the query's m x n shape."""
    value = as_real_array(query_value, "the query value's entries", DomainError)
    if value.shape != (q.m, q.n):
        raise ShapeError(
            f"query value has shape {value.shape}, expected ({q.m}, {q.n})"
        )
    return value


def _validate_query_value(query_value, q: QuerySpec) -> np.ndarray:
    value = _check_shape(query_value, q)
    # np.linalg.norm's own Frobenius formula, without its dispatch; ndarray.dot
    # runs the same dot loop as @, without the matmul gufunc's set-up
    flat = value.ravel("K")
    fro = math.sqrt(flat.dot(flat))
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
    stacks = [np.empty((len(streams), m, n)) for m, n in shapes]
    for t, stream in enumerate(streams):
        for stack, (m, n) in zip(stacks, shapes):
            sample_standard_matrix(stream, m, n, out=stack[t])
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


@dataclass(frozen=True, eq=False)
class ReleasePlan(_TwoStepPlan):
    """Everything a Gaussian release fixes before it draws.

    Built once by :func:`plan_unimodal` or :func:`plan_equimodal`, which
    validate the query value and the basis and take the design and its
    calibration (the budget and the privacy condition's verdict) from
    :func:`release_spectrum`, or by :func:`plan_gaussian`, whose standard
    design puts sigma^2 on every row and 1 on every column. The condition
    reads only the singular values, q and p, so its one verdict holds for
    every trial, including trials whose directions are drawn. :meth:`draw`
    is the per-trial step.

    Attributes:
        value: the validated m x n query value.
        query: the query spec.
        design: the noise design. With ``directions`` set, its bases are
            ``None`` and only its singular values are used; each trial
            draws its own row basis (and column basis, if equi-modal).
        calibration: the name of the rule that set the design, then its
            numbers: ``(mode, BudgetReport, ConditionCheck)`` for MVG, the
            mode "unimodal" or "equimodal", or ``("classic", sigma)``.
        directions: the data's covariance plan from
            :func:`plan_directions_dp`, whose releases' eigenbases the
            trials draw, or ``None`` when the bases are fixed.
    """

    value: np.ndarray
    query: QuerySpec
    design: NoiseDesign
    calibration: tuple
    directions: ReleasePlan | None = None

    def draw_noise(self, streams) -> tuple[np.ndarray, np.ndarray | None]:
        """Trial t's draws from ``streams[t]``, in the order a single release
        makes them: the direction noise first (M*M normals, when the
        directions are drawn), then m*n normals for the mechanism.

        Returns the (T, m, n) standard-normal stack and, when the directions
        are drawn, the (T, m, m) stack of each trial's row basis (checked
        orthonormal), else ``None``. Every plan over the same query and
        directions plan draws the same, so plans that differ only in their
        allocation can color one draw each.
        """
        m, n = self.query.m, self.query.n
        if self.directions is None:
            (noise,) = standard_normal_stacks(streams, [(m, n)])
            return noise, None
        direction_noise, noise = standard_normal_stacks(streams, [(m, m), (m, n)])
        bases = self.direction_bases(direction_noise)
        del direction_noise
        check_orthonormal(bases, "w_sigma")
        return noise, bases

    def direction_bases(self, noise: np.ndarray) -> np.ndarray:
        """The eigenbases, by descending eigenvalue, of the covariance
        releases for a (T, M, M) stack of standard normals, which it scales
        in place."""
        return descending_eigh(self.directions.color(noise, None))[1]

    def color(self, noise: np.ndarray, bases: np.ndarray | None) -> np.ndarray:
        """The releases for a :meth:`draw_noise` result: the noise colored
        by this plan's design, plus the value.

        ``bases`` replaces the design's row basis (and column basis, if
        equi-modal) when it is not ``None``. The design may scale ``noise``
        in place, so the caller hands over the array.
        """
        equimodal = self.calibration[0] == "equimodal"
        output = self.design.color(noise, bases, bases if equimodal else None)
        output += self.value
        return output


class ReleaseSpectrum(NamedTuple):
    """What an MVG release fixes from its query spec, privacy target,
    allocation and mode alone: the singular values, and the budget and the
    privacy condition's verdict on them as the design's calibration.

    ``design`` has standard bases on both sides and read-only singular
    values; a plan attaches its own bases with :meth:`NoiseDesign.with_bases`.
    """

    design: NoiseDesign
    calibration: tuple


@functools.lru_cache(maxsize=TERMS_CACHE_SIZE)
def release_spectrum(q: QuerySpec, p: PrivacyParams, theta: PrecisionAllocation,
                     mode: BudgetMode) -> ReleaseSpectrum:
    """The budget, singular values and condition check of every MVG release
    over one (q, p, theta, mode).

    Memoized on that frozen key, so the singular values are validated, the
    condition checked and the exact delta (:func:`exact_delta`) compared
    with the target once per key. A violated condition or an exact delta
    above the target raises on every call, since an exception is never
    cached. An entry holds O(m) floats: a unimodal design's unit column side
    is one read-only 1.0 broadcast to n entries.
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
    # the paper's condition is sufficient; the exact accountant must agree
    if (delta := exact_delta(design, q.sensitivity, p.epsilon)) > p.delta:
        raise ConditionCheckError(
            f"constructed design's exact delta {delta:.12g} exceeds the target "
            f"delta {p.delta:.12g}; this is a bug"
        )
    return ReleaseSpectrum(design, (mode.value, report, condition))


def _plan(value: np.ndarray, q: QuerySpec, p: PrivacyParams,
          theta: PrecisionAllocation, mode: BudgetMode, w_sigma) -> ReleasePlan:
    directions = None
    if isinstance(w_sigma, _TwoStepPlan):
        if not (isinstance(w_sigma, ReleasePlan) and w_sigma.calibration[0] == "classic"):
            raise ConfigError(
                "w_sigma must be a basis or the classic Gaussian plan of "
                f"plan_directions_dp, got a {type(w_sigma).__name__} of other noise"
            )
        directions, w_sigma = w_sigma, None
        if (shape := directions.value.shape) != (q.m, q.m):
            raise ShapeError(f"directions are drawn for {shape[0]} features but "
                             f"the query has {q.m} rows")
    elif w_sigma is not None and (
            shape := as_array(w_sigma, "w_sigma").shape) != (q.m, q.m):
        raise ShapeError(f"w_sigma has shape {shape} but the query has {q.m} rows")
    design, calibration = release_spectrum(q, p, theta, mode)
    if w_sigma is not None:
        design = design.with_bases(
            w_sigma, w_sigma if mode is BudgetMode.EQUI_MODAL else None)
    # the frozen fields in one write, as NoiseDesign.with_bases does, instead
    # of the generated __init__'s one object.__setattr__ per field
    plan = object.__new__(ReleasePlan)
    vars(plan).update(value=value, query=q, design=design, calibration=calibration,
                      directions=directions)
    return plan


def plan_unimodal(query_value, q: QuerySpec, p: PrivacyParams,
                  theta: PrecisionAllocation, w_sigma) -> ReleasePlan:
    """Plan row-directional, column-i.i.d. releases of one query value.

    Takes :func:`mvg_unimodal`'s arguments except the stream. ``w_sigma``
    may also be a directions plan from :func:`plan_directions_dp`, from
    which each trial draws its own row basis.
    """
    value = _validate_query_value(query_value, q)
    return _plan(value, q, p, theta, BudgetMode.UNIMODAL, w_sigma)


def plan_equimodal(query_value, q: QuerySpec, p: PrivacyParams,
                   theta: PrecisionAllocation, w_sigma) -> ReleasePlan:
    """Plan releases of one square query value with identical row and
    column directional noise.

    Takes :func:`mvg_equimodal`'s arguments except the stream. ``w_sigma``
    may also be a directions plan from :func:`plan_directions_dp`, from
    which each trial draws its own basis for both sides.
    """
    value = _validate_query_value(query_value, q)
    # the budget raises ShapeError for a query that is not square
    plan = _plan(value, q, p, theta, BudgetMode.EQUI_MODAL, w_sigma)
    # equal bytes, as in a computed covariance, tell exact symmetry at once
    if value.tobytes() != value.T.tobytes() and (
            fault := symmetry_fault(value, "the query value")):
        warnings.warn(f"equi-modal noise is recommended for symmetric queries; {fault}",
                      stacklevel=2)
    return plan


def _release(plan: ReleasePlan, stream: RandomStream) -> PerturbResult:
    if plan.directions is not None:
        # the result's design could not name the basis the draw used
        raise ConfigError(
            "a single release takes a fixed w_sigma, not a directions plan: "
            "draw one with derive_directions_dp, or draw per trial from "
            "plan_unimodal/plan_equimodal"
        )
    result = object.__new__(PerturbResult)  # as _plan builds its plan
    vars(result).update(output=plan.draw([stream])[0], design=plan.design,
                        budget=plan.calibration[1], seed=stream.seed)
    return result


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
    sensitivity = as_real(sensitivity, "sensitivity", DomainError, positive=True)
    if p.epsilon > 1.0:
        warnings.warn(
            f"the classic Gaussian-mechanism bound assumes epsilon <= 1, "
            f"got epsilon = {p.epsilon}",
            stacklevel=2,
        )
    return as_real(sensitivity * math.sqrt(2.0 * math.log(1.25 / p.delta)) / p.epsilon,
                   "the Gaussian noise scale", DomainError, positive=True)


@dataclass(frozen=True, eq=False)
class LaplacePlan(_TwoStepPlan):
    """Classic Laplace releases of one validated query value: i.i.d.
    Laplace noise of scale ``scale`` on every entry. Built by
    :func:`plan_laplace`; a scale that is not positive and finite is a
    DomainError."""

    value: np.ndarray
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "scale", as_real(self.scale, "the Laplace scale",
                                                  DomainError, positive=True))

    def draw_noise(self, streams) -> tuple[np.ndarray]:
        """Trial t's m*n unit Laplace variates from ``streams[t]`` alone, as
        one (T, m, n) stack. numpy draws ``loc +- scale * log(u)``, so with
        ``loc = 0`` a unit variate times s has the bits of one at scale s."""
        noise = np.empty((len(streams), *self.value.shape))
        for t, stream in enumerate(streams):
            noise[t] = stream.laplace(1.0, self.value.shape)
        return (noise,)

    def color(self, noise: np.ndarray) -> np.ndarray:
        """Scale ``noise`` in place by ``scale`` and add the value."""
        noise *= self.scale
        noise += self.value
        return noise


def plan_gaussian(query_value, q: QuerySpec, p: PrivacyParams) -> ReleasePlan:
    """Plan classic Gaussian releases; takes :func:`gaussian_iid_baseline`'s
    arguments except the stream. Coloring scales each entry by sqrt(sigma^2),
    which is sigma exactly when sigma^2 is a normal float, as it must be."""
    value = _check_shape(query_value, q)
    sigma = gaussian_noise_scale(q.sensitivity, p)
    variance = sigma * sigma
    if not sys.float_info.min <= variance < math.inf:
        raise DomainError(f"the Gaussian noise scale must have a square that is a "
                          f"normal float, got {sigma!r}")
    design = NoiseDesign(None, np.full(q.m, variance), None, np.broadcast_to(1.0, q.n))
    return ReleasePlan(value, q, design, ("classic", sigma))


def plan_laplace(query_value, q: QuerySpec, epsilon: float) -> LaplacePlan:
    """Plan classic Laplace releases; takes :func:`laplace_iid_baseline`'s
    arguments except the stream."""
    value = _check_shape(query_value, q)
    epsilon = as_real(epsilon, "epsilon", DomainError, positive=True)
    if q.l1_sensitivity is None:
        raise ConfigError(
            f"the Laplace baseline is calibrated to the L1 sensitivity but got a "
            f"{q.kind.value} query, whose L1 sensitivity is unknown"
        )
    return LaplacePlan(value, q.l1_sensitivity / epsilon)


def gaussian_iid_baseline(query_value, q: QuerySpec, p: PrivacyParams,
                          stream: RandomStream) -> np.ndarray:
    """Classic Gaussian mechanism: i.i.d. noise scaled to the L2 sensitivity.

    Equals the matrix-Gaussian sampler with Sigma = sigma^2 * I and Psi = I
    under shared draws, entry for entry. Equivalent to
    ``plan_gaussian(...).draw([stream])[0]``.
    """
    return plan_gaussian(query_value, q, p).draw([stream])[0]


def laplace_iid_baseline(query_value, q: QuerySpec, epsilon: float,
                         stream: RandomStream) -> np.ndarray:
    """Classic Laplace mechanism: i.i.d. noise with scale
    ``q.l1_sensitivity / epsilon``.

    A query of unknown L1 sensitivity (None) raises ConfigError. Equivalent
    to ``plan_laplace(...).draw([stream])[0]``.
    """
    return plan_laplace(query_value, q, epsilon).draw([stream])[0]


def plan_directions_dp(gram: AuditedGram, p_fraction: PrivacyParams) -> ReleasePlan:
    """The directions plan: the Gaussian baseline's plan of the data's
    covariance X X^T / N, whose releases' eigenbases are the directions.

    ``gram`` is the records' :class:`AuditedGram`, built by the clamp, so
    nothing is clamped or multiplied again: the covariance query over its
    own ``bounds`` gives the sensitivity, and the noise always follows the
    range the data was clamped into. Passed as ``w_sigma`` to an MVG plan,
    it draws each trial's directions. The eigenbasis of ``draw([stream])``
    of the plan for ``AuditedGram.of(x, lo, hi)`` equals
    :func:`derive_directions_dp` of ``x`` over that box bit for bit.
    """
    if not isinstance(gram, AuditedGram):
        raise TypeError(
            "plan_directions_dp takes the records' AuditedGram, built with "
            f"AuditedGram.of(x, lo, hi); got {type(gram).__name__}"
        )
    return plan_gaussian(gram.covariance, covariance_query(gram.bounds), p_fraction)


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
        bounds: declared shape and per-entry range; the covariance
            sensitivity comes from here, never from the data itself.
    """
    x = as_real_array(data, "the records", DomainError, ndim=2)
    k = as_count(k, "k", ShapeError)
    if k > x.shape[0]:
        raise ShapeError(f"k = {k} exceeds the number of features {x.shape[0]}")
    bounds.check_shape(x.shape)
    gram = AuditedGram.of(x, bounds.lo, bounds.hi)
    return descending_eigh(plan_directions_dp(gram, p_fraction).draw([stream]))[1][0]


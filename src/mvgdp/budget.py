"""Privacy-budget formulas for the matrix-variate Gaussian mechanism.

Everything here is closed form: generalized harmonic numbers, the
concentration bound zeta(delta), the (alpha, beta) coefficients of the
quadratic privacy condition, the bound on the combined inverse-singular-value
norm phi, and the two precision budgets (directional rows with i.i.d.
columns, and identical row/column covariances).

All functions are pure; they can be called concurrently without restriction.
The terms of one (QuerySpec, PrivacyParams) pair are computed once and
memoized in a bounded cache (:func:`budget_terms`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .design import NoiseDesign
from .errors import DomainError, ShapeError, as_count, as_real

# Relative slack when comparing the condition's two sides, absorbing
# floating-point error from eigendecompositions. Saturating designs count
# as passing.
CONDITION_RTOL = 1e-9

# Relative slack on sensitivity <= 2*gamma (exact in real arithmetic).
_TRIANGLE_RTOL = 1e-12

HARMONIC_DIRECT_MAX = 1 << 16  # see harmonic_numbers

# Keys each memo keeps: (QuerySpec, PrivacyParams) pairs here, and the
# (query, privacy, allocation, mode) keys of mechanisms.release_spectrum. A
# run uses a few, so this only bounds a long-lived caller's memory.
TERMS_CACHE_SIZE = 256


class QueryKind(enum.Enum):
    IDENTITY = "identity"
    COVARIANCE = "covariance"
    CUSTOM = "custom"


class BudgetMode(enum.Enum):
    UNIMODAL = "unimodal"
    EQUI_MODAL = "equimodal"

    # a member is its process's one instance and equals only itself, so an
    # identity hash agrees with equality; enum.Enum.__hash__ would be a
    # Python call on every release_spectrum lookup
    __hash__ = object.__hash__


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy target.

    delta must lie strictly inside (0, 1): the mechanism's guarantee is of
    the Gaussian style and has no pure-epsilon (delta = 0) form. Its hash
    is computed once, from the two floats.
    """

    epsilon: float
    delta: float
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # as float64, for the reason QuerySpec gives
        object.__setattr__(self, "epsilon",
                           as_real(self.epsilon, "epsilon", DomainError, positive=True))
        object.__setattr__(self, "delta", as_real(self.delta, "delta", DomainError))
        if not 0 < self.delta < 1:
            raise DomainError(
                f"delta must lie in the open interval (0, 1), got {self.delta}; "
                "delta = 0 (a pure epsilon-DP guarantee) is not offered by this "
                "Gaussian-style mechanism"
            )
        object.__setattr__(self, "_hash", hash((self.epsilon, self.delta)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class QuerySpec:
    """Shape and scale of a matrix-valued query.

    Attributes:
        m, n: output dimensions of the query.
        sensitivity: worst-case Frobenius-norm change of the query over
            datasets differing in one record.
        gamma: supremum of the query's Frobenius norm over all admissible
            datasets.
        kind: query family, a :class:`QueryKind`; a label that only error
            messages read.
        l1_sensitivity: worst-case entrywise L1 change over datasets
            differing in one record, which calibrates the Laplace baseline;
            None when unknown, as for a custom query.

    The hash is computed once, from values whose hashes are the same in
    every process, so a spec pickled in one process keys another's memos.
    """

    m: int
    n: int
    sensitivity: float
    gamma: float
    kind: QueryKind = QueryKind.CUSTOM
    l1_sensitivity: float | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        as_count(self.m, "m", DomainError)
        as_count(self.n, "n", DomainError)
        if not isinstance(self.kind, QueryKind):
            raise DomainError(f"kind must be a QueryKind, got {self.kind!r}")
        scales = ["sensitivity", "gamma"]
        if self.l1_sensitivity is not None:  # None stands for unknown
            scales.append("l1_sensitivity")
        for name in scales:
            # as float64, since a float32 would share a float64's cache key
            # (it compares equal) but compute other bits
            object.__setattr__(self, name, as_real(getattr(self, name), name, DomainError,
                                                   positive=True))
        if self.sensitivity > 2.0 * self.gamma * (1.0 + _TRIANGLE_RTOL):
            raise DomainError(
                f"sensitivity {self.sensitivity} exceeds 2*gamma = {2 * self.gamma}; "
                "a single-record change cannot move the query further than the "
                "diameter of its Frobenius ball"
            )
        # the kind's position, not its str value or its enum hash, and 0.0
        # for an unknown L1 sensitivity (a known one is positive), not None:
        # str and None hashes differ between processes
        object.__setattr__(self, "_hash", hash((
            self.m, self.n, self.sensitivity, self.gamma, list(QueryKind).index(self.kind),
            0.0 if self.l1_sensitivity is None else self.l1_sensitivity)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def r(self) -> int:
        """min(m, n), the rank bound used by the harmonic-number sums."""
        return min(self.m, self.n)


@dataclass(frozen=True)
class BudgetReport:
    """All intermediate quantities of a precision-budget computation."""

    h_r: float
    h_r_half: float
    zeta: float
    alpha: float
    beta: float
    phi_max: float
    precision_budget: float
    mode: BudgetMode

    def __post_init__(self):
        for name in ("h_r", "h_r_half", "zeta", "alpha", "beta", "phi_max",
                     "precision_budget"):
            as_real(getattr(self, name), f"BudgetReport.{name}", DomainError, positive=True)


class ConditionCheck(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def harmonic_numbers(r: int) -> tuple[float, float]:
    """Generalized harmonic numbers (sum of 1/i, sum of 1/sqrt(i)) for i=1..r.

    Summed term by term up to ``HARMONIC_DIRECT_MAX``; above it, in O(1)
    memory, by the Euler-Maclaurin expansions ln r + gamma_E + 1/(2r) -
    1/(12 r^2) and 2 sqrt(r) + zeta(1/2) + 1/(2 sqrt(r)) - 1/(24 r^1.5),
    whose next terms are below 1e-20 of the sums there.
    """
    r = as_count(r, "r", DomainError)
    if r <= HARMONIC_DIRECT_MAX:
        idx = np.arange(1, r + 1, dtype=float)
        return float(np.sum(1.0 / idx)), float(np.sum(1.0 / np.sqrt(idx)))
    x = as_real(r, "r", DomainError)
    root = math.sqrt(x)
    return (math.log(x) + np.euler_gamma + 0.5 / x - 1.0 / (12.0 * x * x),
            2.0 * root - 1.4603545088095868 + 0.5 / root - 1.0 / (24.0 * x * root))


def zeta(delta: float, m: int, n: int) -> float:
    """Concentration bound 2*sqrt(-mn*ln(delta)) - 2*ln(delta) + mn.

    The squared Frobenius norm of an m x n standard-normal matrix stays at or
    below zeta(delta) itself, not its square, with probability at least
    1 - delta (Laurent and Massart, 2000). Natural logarithms throughout.
    """
    if not 0 < delta < 1:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    mn = as_real(as_count(m, "m", DomainError) * as_count(n, "n", DomainError),
                 "m*n", DomainError)
    log_delta = math.log(delta)
    return 2.0 * math.sqrt(-mn * log_delta) - 2.0 * log_delta + mn


def alpha_beta(q: QuerySpec, p: PrivacyParams) -> tuple[float, float]:
    """Coefficients of the quadratic condition alpha*phi^2 + beta*phi <= 2*eps.

    alpha = (H_r + H_{r,1/2}) * gamma^2 + 2 * H_r * gamma * s2
    beta  = 2 * (mn)^(1/4) * H_r * s2 * zeta(delta)

    Read from :func:`budget_terms`, so they are computed once per (q, p).
    """
    return budget_terms(q, p)[3:5]


def phi_bound(alpha: float, beta: float, epsilon: float) -> float:
    """Largest phi with alpha*phi^2 + beta*phi <= 2*epsilon.

    The closed form (-beta + sqrt(beta^2 + 8*alpha*epsilon)) / (2*alpha) is
    evaluated as 4*epsilon / (beta + sqrt(beta^2 + 8*alpha*epsilon)), which
    is algebraically identical but avoids the cancellation that otherwise
    destroys precision when beta^2 dominates 8*alpha*epsilon.
    """
    alpha = as_real(alpha, "alpha", DomainError, positive=True)
    beta = as_real(beta, "beta", DomainError, positive=True)
    epsilon = as_real(epsilon, "epsilon", DomainError, positive=True)
    return 4.0 * epsilon / (beta + math.sqrt(beta * beta + 8.0 * alpha * epsilon))


def check_condition(design: NoiseDesign, q: QuerySpec, p: PrivacyParams) -> ConditionCheck:
    """Evaluate the sufficient privacy condition for a noise design.

    The left side is the product of the Euclidean norms of the inverse
    singular values of the two covariances; the right side is phi_bound
    squared. The guarantee depends only on the singular values, so the
    direction bases never enter. Returns (holds, lhs, rhs) with ``holds``
    true when lhs <= rhs * (1 + 1e-9); exactly saturating designs pass.
    A design that is not the query's m x n raises ShapeError.
    """
    if design.m != q.m or design.n != q.n:
        raise ShapeError(f"design is {design.m}x{design.n} but the query is {q.m}x{q.n}")
    lhs = math.sqrt(float((design.lambda_sigma ** -2.0).sum())) * \
        math.sqrt(float((design.lambda_psi ** -2.0).sum()))
    *_, phi_max = budget_terms(q, p)
    rhs = phi_max ** 2
    return ConditionCheck(lhs <= rhs * (1.0 + CONDITION_RTOL), lhs, rhs)


def exact_delta(design: NoiseDesign, sensitivity: float, epsilon: float) -> float:
    """The exact delta at epsilon of a release with this design's noise.

    A release adds B_sigma N B_psi^T, so it is the Gaussian mechanism with
    unit noise on the whitened query, whose sensitivity is at most
    mu = s2 / sqrt(lambda_min(Sigma) * lambda_min(Psi)). That mechanism's
    least delta at epsilon is Phi(a) - e^eps Phi(-b), with a = mu/2 - eps/mu
    and b = mu/2 + eps/mu (Balle and Wang, "Improving the Gaussian Mechanism
    for Differential Privacy", ICML 2018). The result lies in [0, 1] for
    every positive finite epsilon.
    """
    sensitivity = as_real(sensitivity, "sensitivity", DomainError, positive=True)
    epsilon = as_real(epsilon, "epsilon", DomainError, positive=True)
    mu = (sensitivity / math.sqrt(float(design.lambda_sigma.min()))
          / math.sqrt(float(design.lambda_psi.min())))
    if not mu:  # the whitened sensitivity underflowed: nothing to tell apart
        return 0.0
    a, x = mu / 2 - epsilon / mu, (mu / 2 + epsilon / mu) / math.sqrt(2.0)
    # x^2 >= epsilon, so e^eps is finite while erfc(x) is a normal float
    if x * x < 700.0:
        tail = math.exp(epsilon) * math.erfc(x)
    else:
        # x^2 - eps = a^2 / 2, so e^eps erfc(x) = e^(-a^2/2) e^(x^2) erfc(x), and
        # e^(x^2) erfc(x) is Laplace's continued fraction 1 / (sqrt(pi) (x +
        # (1/2) / (x + 1 / (x + (3/2) / (x + ...))))), converged by 20 terms
        # at x^2 >= 700
        fraction = x
        for k in range(20, 0, -1):
            fraction = x + k / 2 / fraction
        tail = math.exp(-a * a / 2) / (fraction * math.sqrt(math.pi))
    return max((math.erfc(-a / math.sqrt(2.0)) - tail) / 2, 0.0)


@functools.lru_cache(maxsize=TERMS_CACHE_SIZE)
def budget_terms(q: QuerySpec,
                 p: PrivacyParams) -> tuple[float, float, float, float, float, float]:
    """(H_r, H_{r,1/2}, zeta(delta), alpha, beta, phi_max) for one query and
    privacy target.

    Memoized on the frozen (q, p) pair: the budget reports and the condition
    check of every release over that pair read one computation, so a
    condition's rhs is its report's ``phi_max ** 2`` bit for bit.
    """
    h_r, h_r_half = harmonic_numbers(q.r)
    z = zeta(p.delta, q.m, q.n)
    # gamma * gamma overflows to inf, which phi_bound rejects; ** would raise
    alpha = (h_r + h_r_half) * (q.gamma * q.gamma) + 2.0 * h_r * q.gamma * q.sensitivity
    beta = 2.0 * (q.m * q.n) ** 0.25 * h_r * q.sensitivity * z
    phi = as_real(phi_bound(alpha, beta, p.epsilon), f"phi_max at epsilon={p.epsilon}, "
                  f"delta={p.delta},", DomainError, positive=True)
    return h_r, h_r_half, z, alpha, beta, phi


def _report(q: QuerySpec, p: PrivacyParams, mode: BudgetMode) -> BudgetReport:
    h_r, h_r_half, z, alpha, beta, phi = budget_terms(q, p)
    try:  # a float ** raises OverflowError where * gives inf
        budget = phi ** 4 / q.n if mode is BudgetMode.UNIMODAL else phi ** 2
    except OverflowError:
        budget = math.inf
    as_real(budget, f"the {mode.value} precision budget at epsilon={p.epsilon}, "
            f"delta={p.delta},", DomainError, positive=True)
    return BudgetReport(h_r=h_r, h_r_half=h_r_half, zeta=z, alpha=alpha,
                        beta=beta, phi_max=phi, precision_budget=budget,
                        mode=mode)


def precision_budget_unimodal(q: QuerySpec, p: PrivacyParams) -> BudgetReport:
    """Precision budget phi_max^4 / n for directional rows and i.i.d. columns.

    With the column covariance fixed to the identity, the condition decouples
    into a cap on the sum of inverse row-noise variances; that cap is the
    budget returned here.
    """
    return _report(q, p, BudgetMode.UNIMODAL)


def precision_budget_equimodal(q: QuerySpec, p: PrivacyParams) -> BudgetReport:
    """Precision budget phi_max^2 for identical row and column covariances.

    Requires a square query (m == n).
    """
    if q.m != q.n:
        raise ShapeError(
            f"equi-modal noise needs a square query, got {q.m}x{q.n}"
        )
    return _report(q, p, BudgetMode.EQUI_MODAL)

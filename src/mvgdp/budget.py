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
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import NoiseDesign
from .errors import DomainError, ShapeError, is_count

# Relative slack when comparing the condition's two sides, absorbing
# floating-point error from eigendecompositions. Saturating designs count
# as passing.
CONDITION_RTOL = 1e-9

# Relative slack on sensitivity <= 2*gamma (exact in real arithmetic).
_TRIANGLE_RTOL = 1e-12

# Keys each memo keeps: (QuerySpec, PrivacyParams) pairs here, and the
# (query, privacy, allocation, mode) keys of mechanisms.release_spectrum. A
# run uses a few, so this only bounds a long-lived caller's memory.
TERMS_CACHE_SIZE = 256


def _is_real(value) -> bool:
    # a bool is an int to isinstance, and True would alias 1 as a cache key
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class QueryKind(enum.Enum):
    IDENTITY = "identity"
    COVARIANCE = "covariance"
    CUSTOM = "custom"


class BudgetMode(enum.Enum):
    UNIMODAL = "unimodal"
    EQUI_MODAL = "equimodal"


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy target.

    delta must lie strictly inside (0, 1): the mechanism's guarantee is of
    the Gaussian style and has no pure-epsilon (delta = 0) form.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (_is_real(self.epsilon) and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be a finite number, got {self.epsilon!r}")
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if not (_is_real(self.delta) and math.isfinite(self.delta)):
            raise DomainError(f"delta must be a finite number, got {self.delta!r}")
        if not 0 < self.delta < 1:
            raise DomainError(
                f"delta must lie in the open interval (0, 1), got {self.delta}; "
                "delta = 0 (a pure epsilon-DP guarantee) is not offered by this "
                "Gaussian-style mechanism"
            )


@dataclass(frozen=True)
class QuerySpec:
    """Shape and scale of a matrix-valued query.

    Attributes:
        m, n: output dimensions of the query.
        sensitivity: worst-case Frobenius-norm change of the query over
            datasets differing in one record.
        gamma: supremum of the query's Frobenius norm over all admissible
            datasets.
        kind: query family. The mechanisms ignore it; the harness's Laplace
            baseline picks the covariance or identity L1 sensitivity by it.
    """

    m: int
    n: int
    sensitivity: float
    gamma: float
    kind: QueryKind = QueryKind.CUSTOM

    def __post_init__(self):
        for name, value in (("m", self.m), ("n", self.n)):
            if not is_count(value) or value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
        for name in ("sensitivity", "gamma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            # as float64, since a float32 would share a float64's cache key
            # (it compares equal) but compute other bits
            object.__setattr__(self, name, float(value))
        if not self.sensitivity > 0:
            raise DomainError(f"sensitivity must be positive, got {self.sensitivity}")
        if not self.gamma > 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.sensitivity > 2.0 * self.gamma * (1.0 + _TRIANGLE_RTOL):
            raise DomainError(
                f"sensitivity {self.sensitivity} exceeds 2*gamma = {2 * self.gamma}; "
                "a single-record change cannot move the query further than the "
                "diameter of its Frobenius ball"
            )

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"BudgetReport.{name} must be finite and positive, "
                                  f"got {value}")


class ConditionCheck(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def harmonic_numbers(r: int) -> tuple[float, float]:
    """Generalized harmonic numbers (sum of 1/i, sum of 1/sqrt(i)) for i=1..r.

    Computed by direct summation; exact enough for any realistic r and keeps
    the values independently checkable.
    """
    if not is_count(r) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    idx = np.arange(1, int(r) + 1, dtype=float)
    return float(np.sum(1.0 / idx)), float(np.sum(1.0 / np.sqrt(idx)))


def zeta(delta: float, m: int, n: int) -> float:
    """Concentration bound 2*sqrt(-mn*ln(delta)) - 2*ln(delta) + mn.

    The squared Frobenius norm of an m x n standard-normal matrix stays at or
    below zeta(delta) itself, not its square, with probability at least
    1 - delta (Laurent and Massart, 2000). Natural logarithms throughout.
    """
    if not 0 < delta < 1:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    for name, value in (("m", m), ("n", n)):
        if not is_count(value) or value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value!r}")
    mn = float(m * n)
    log_delta = math.log(delta)
    return 2.0 * math.sqrt(-mn * log_delta) - 2.0 * log_delta + mn


def alpha_beta(q: QuerySpec, p: PrivacyParams) -> tuple[float, float]:
    """Coefficients of the quadratic condition alpha*phi^2 + beta*phi <= 2*eps.

    alpha = (H_r + H_{r,1/2}) * gamma^2 + 2 * H_r * gamma * s2
    beta  = 2 * (mn)^(1/4) * H_r * s2 * zeta(delta)
    """
    h_r, h_r_half = harmonic_numbers(q.r)
    return _alpha_beta(q, h_r, h_r_half, zeta(p.delta, q.m, q.n))


def _alpha_beta(q: QuerySpec, h_r: float, h_r_half: float,
                z: float) -> tuple[float, float]:
    alpha = (h_r + h_r_half) * q.gamma ** 2 + 2.0 * h_r * q.gamma * q.sensitivity
    beta = 2.0 * (q.m * q.n) ** 0.25 * h_r * q.sensitivity * z
    return alpha, beta


def phi_bound(alpha: float, beta: float, epsilon: float) -> float:
    """Largest phi with alpha*phi^2 + beta*phi <= 2*epsilon.

    The closed form (-beta + sqrt(beta^2 + 8*alpha*epsilon)) / (2*alpha) is
    evaluated as 4*epsilon / (beta + sqrt(beta^2 + 8*alpha*epsilon)), which
    is algebraically identical but avoids the cancellation that otherwise
    destroys precision when beta^2 dominates 8*alpha*epsilon.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("epsilon", epsilon)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    return 4.0 * epsilon / (beta + math.sqrt(beta * beta + 8.0 * alpha * epsilon))


def check_condition(design: NoiseDesign, q: QuerySpec, p: PrivacyParams) -> ConditionCheck:
    """Evaluate the sufficient privacy condition for a noise design.

    The left side is the product of the Euclidean norms of the inverse
    singular values of the two covariances; the right side is phi_bound
    squared. The guarantee depends only on the singular values, so the
    direction bases never enter. Returns (holds, lhs, rhs) with ``holds``
    true when lhs <= rhs * (1 + 1e-9); exactly saturating designs pass.
    """
    if design.m != q.m or design.n != q.n:
        raise ShapeError(
            f"design is {design.m}x{design.n} but the query is {q.m}x{q.n}"
        )
    lhs = math.sqrt(float((design.lambda_sigma ** -2.0).sum())) * \
        math.sqrt(float((design.lambda_psi ** -2.0).sum()))
    *_, phi_max = budget_terms(q, p)
    rhs = phi_max ** 2
    return ConditionCheck(lhs <= rhs * (1.0 + CONDITION_RTOL), lhs, rhs)


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
    alpha, beta = _alpha_beta(q, h_r, h_r_half, z)
    return h_r, h_r_half, z, alpha, beta, phi_bound(alpha, beta, p.epsilon)


def _report(q: QuerySpec, p: PrivacyParams, mode: BudgetMode) -> BudgetReport:
    h_r, h_r_half, z, alpha, beta, phi = budget_terms(q, p)
    if mode is BudgetMode.UNIMODAL:
        budget = phi ** 4 / q.n
    else:
        budget = phi ** 2
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

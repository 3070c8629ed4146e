"""Worst-case sensitivity and norm bounds for bounded-range data.

Datasets are M x N matrices whose columns are the records; two datasets are
neighbors when they differ in exactly one column. Every entry is assumed to
lie in a declared interval [lo, hi]. All bounds here are worst case over that
box and never look at the actual private values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError, DomainError, is_count


@dataclass(frozen=True)
class DataBounds:
    """Declared shape and per-entry range of a dataset.

    Attributes:
        num_features: number of rows M (features).
        num_samples: number of columns N (records).
        lo, hi: inclusive per-entry range.
    """

    num_features: int
    num_samples: int
    lo: float
    hi: float

    def __post_init__(self):
        for name, value in (("num_features", self.num_features),
                            ("num_samples", self.num_samples)):
            if not is_count(value) or value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"lo must be less than hi, got [{self.lo}, {self.hi}]")

    @property
    def magnitude(self) -> float:
        """Largest absolute entry value admitted by the range."""
        return max(abs(self.lo), abs(self.hi))


def check_within_bounds(x, b: DataBounds) -> None:
    """Raise ContractViolationError unless every entry of ``x`` lies in
    [lo, hi].

    Written as ``not (min >= lo and max <= hi)`` so a NaN entry fails: it
    compares false with both ends.
    """
    lo, hi = float(x.min()), float(x.max())
    if not (lo >= b.lo and hi <= b.hi):
        raise ContractViolationError(
            f"data range [{lo:.6g}, {hi:.6g}] escapes the declared bounds "
            f"[{b.lo}, {b.hi}]; sensitivity and gamma claims would be false"
        )


def identity_sensitivity(b: DataBounds) -> float:
    """L2 sensitivity of f(X) = X: replacing one record moves at most one
    column, each of M entries by at most (hi - lo)."""
    return (b.hi - b.lo) * math.sqrt(b.num_features)


def covariance_sensitivity(b: DataBounds) -> float:
    """L2 sensitivity of f(X) = X X^T / N.

    Replacing record x by x' changes the query by (x x^T - x' x'^T) / N, whose
    Frobenius norm is at most (|x|^2 + |x'|^2) / N <= 2 M c^2 / N with
    c = max(|lo|, |hi|).
    """
    c = b.magnitude
    return 2.0 * b.num_features * c * c / b.num_samples


def gamma_identity(b: DataBounds) -> float:
    """Frobenius-norm bound on f(X) = X over the box: c * sqrt(M * N)."""
    return b.magnitude * math.sqrt(b.num_features * b.num_samples)


def gamma_covariance(b: DataBounds) -> float:
    """Frobenius-norm bound on f(X) = X X^T / N over the box.

    Each rank-one term x x^T has norm |x|^2 <= M c^2, and the average of N
    such terms keeps the bound: M c^2. Attained by constant +-c columns.
    """
    c = b.magnitude
    return b.num_features * c * c


def identity_sensitivity_l1(b: DataBounds) -> float:
    """Entrywise L1 sensitivity of f(X) = X, for Laplace-style noise."""
    return (b.hi - b.lo) * b.num_features


def covariance_sensitivity_l1(b: DataBounds) -> float:
    """Entrywise L1 sensitivity of f(X) = X X^T / N.

    |x x^T|_1 = (sum_i |x_i|)^2 <= (M c)^2, and the difference of two such
    terms divided by N gives 2 M^2 c^2 / N.
    """
    c = b.magnitude
    return 2.0 * b.num_features ** 2 * c * c / b.num_samples

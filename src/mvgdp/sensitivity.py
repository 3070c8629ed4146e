"""Worst-case sensitivity and norm bounds for bounded-range data.

Datasets are M x N matrices whose columns are the records; two datasets are
neighbors when they differ in exactly one column. Every entry is assumed to
lie in a declared interval [lo, hi]. All bounds here are worst case over that
box and never look at the actual private values; only the audit
(:func:`check_within_bounds` and :class:`AuditedGram`) reads the data, to
check that it lies in the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError, DomainError, ShapeError, is_count


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
        check_range(self.lo, self.hi)

    @property
    def magnitude(self) -> float:
        """Largest absolute entry value admitted by the range."""
        return max(abs(self.lo), abs(self.hi))


def check_range(lo: float, hi: float) -> None:
    """Raise DomainError unless [lo, hi] is a finite range with lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise DomainError(f"lo must be less than hi, got [{lo}, {hi}]")


def check_within_bounds(x, lo: float, hi: float) -> None:
    """Raise ContractViolationError unless every entry of ``x`` lies in
    [lo, hi].

    Written as ``not (min >= lo and max <= hi)`` so a NaN entry fails: it
    compares false with both ends.
    """
    x_lo, x_hi = float(x.min()), float(x.max())
    if not (x_lo >= lo and x_hi <= hi):
        raise ContractViolationError(
            f"data range [{x_lo:.6g}, {x_hi:.6g}] escapes the declared bounds "
            f"[{lo}, {hi}]; sensitivity and gamma claims would be false"
        )


@dataclass(frozen=True, init=False, eq=False)
class AuditedGram:
    """The Gram matrix X X^T of a dataset whose every entry was checked to
    lie in [lo, hi].

    Building one is the audit: the constructor checks each block of records
    with :func:`check_within_bounds` as it sums the block's Gram matrix, so
    an instance cannot exist for data that escapes its box. The covariance
    query and private directions need only this m x m matrix, so a dataset
    read in blocks is never held whole.

    Attributes:
        gram: X X^T, unnormalized and read-only.
        num_features, num_samples: M and N of the dataset.
        lo, hi: the range every entry was checked against.
    """

    gram: np.ndarray
    num_features: int
    num_samples: int
    lo: float
    hi: float

    def __init__(self, record_blocks, lo: float, hi: float):
        """Audit and sum ``record_blocks``, an iterable of (records, M)
        arrays (rows are records), against [lo, hi].

        One block gives ``block.T @ block`` bit for bit; more blocks give the
        sum of their products, which can differ from one product over all
        records in the last bits.
        """
        check_range(lo, hi)
        gram, num_samples = None, 0
        for block in record_blocks:
            check_within_bounds(block, lo, hi)
            if gram is None:
                gram = block.T @ block
            else:
                gram += block.T @ block
            num_samples += block.shape[0]
        if gram is None:
            raise ShapeError("a Gram matrix needs at least one block of records")
        gram.flags.writeable = False
        for name, value in (("gram", gram), ("num_features", gram.shape[0]),
                            ("num_samples", num_samples), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, x, lo: float, hi: float) -> "AuditedGram":
        """The audited Gram matrix of an M x N dataset held in memory, records
        as columns; its ``gram`` is ``x @ x.T`` bit for bit."""
        return cls([x.T], lo, hi)

    def check_box(self, lo: float, hi: float) -> None:
        """Raise ConfigError unless this matrix was audited against [lo, hi]."""
        if (self.lo, self.hi) != (lo, hi):
            raise ConfigError(
                f"the Gram matrix was audited against [{self.lo}, {self.hi}] but "
                f"the bounds declare [{lo}, {hi}]"
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

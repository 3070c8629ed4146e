"""Worst-case sensitivity and norm bounds for bounded-range data.

Datasets are M x N matrices whose columns are the records; two datasets are
neighbors when they differ in exactly one column. Every entry is assumed to
lie in a declared interval [lo, hi]. All bounds here are worst case over that
box and never look at the actual private values, and
:func:`identity_query` and :func:`covariance_query` gather them into the
:class:`QuerySpec` a release is planned from. The bounds hold because every
record is clamped into the box where it enters (:func:`clamp`, which
:class:`AuditedGram` applies to each block it sums), so only a cell that
is not a number can stop a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import QueryKind, QuerySpec
from .errors import (ContractViolationError, DomainError, ShapeError, as_count, as_real,
                     as_real_array, to_float)


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
        for name in ("num_features", "num_samples"):
            object.__setattr__(self, name, as_count(getattr(self, name), name, DomainError))
        check_range(self.lo, self.hi)

    @property
    def magnitude(self) -> float:
        """Largest absolute entry value admitted by the range."""
        return max(abs(self.lo), abs(self.hi))

    def check_shape(self, shape: tuple[int, ...]) -> None:
        """Raise ShapeError unless ``shape`` is the declared M x N."""
        if tuple(shape) != (self.num_features, self.num_samples):
            raise ShapeError(
                f"bounds declare {self.num_features}x{self.num_samples} but the "
                f"data is {'x'.join(map(str, shape))}"
            )


def check_range(lo: float, hi: float) -> None:
    """Raise DomainError unless [lo, hi] is a finite real range with lo < hi."""
    as_real(lo, "bounds", DomainError)
    as_real(hi, "bounds", DomainError)
    if not lo < hi:
        raise DomainError(f"lo must be less than hi, got [{lo}, {hi}]")


def clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``x`` with every entry clamped into [lo, hi], the one box policy.

    Returns ``x`` itself when every entry already lies in the box, and
    otherwise ``np.clip(x, lo, hi)``, so an infinity becomes the box's edge.
    A NaN fails the first test and survives the clip; it raises
    ContractViolationError, naming neither the value nor where it is.
    """
    if x.min() >= lo and x.max() <= hi:
        return x
    clipped = np.clip(x, lo, hi)
    if np.isnan(clipped).any():
        raise ContractViolationError(
            "the data holds a cell that is not a number, which no box can clamp; "
            "sensitivity and gamma claims would be false"
        )
    return clipped


# Cells per block of records summed into an AuditedGram, whether the records
# are in memory or read from a file: 512 KiB of float64, 4096 records at 16
# features.
GRAM_BLOCK_CELLS = 65536


@dataclass(frozen=True, init=False, eq=False)
class AuditedGram:
    """The Gram matrix X X^T of a dataset whose every entry was clamped
    into [lo, hi].

    The constructor clamps each block of records with :func:`clamp` as it
    sums the block's Gram matrix, so an instance holds the Gram matrix of
    data inside its box, whatever the records were. The covariance
    query and private directions need only this m x m matrix, so a dataset
    read in blocks is never held whole.

    Attributes:
        gram: X X^T, unnormalized and read-only.
        bounds: the dataset's M and N, counted from its records, and the
            range [lo, hi] every entry was clamped into.
    """

    gram: np.ndarray
    bounds: DataBounds

    def __init__(self, record_blocks, lo: float, hi: float):
        """Clamp ``record_blocks``, an iterable of (records, M) arrays
        (rows are records), into [lo, hi] and sum their Gram matrices.

        One block inside the box gives ``block.T @ block`` bit for bit;
        more blocks give the sum of their products, which can differ from
        one product over all records in the last bits.
        """
        check_range(lo, hi)
        gram, num_samples = None, 0
        for block in record_blocks:
            block = clamp(block, lo, hi)
            if gram is None:
                gram = block.T @ block
            else:
                gram += block.T @ block
            num_samples += block.shape[0]
        if gram is None:
            raise ShapeError("a Gram matrix needs at least one block of records")
        gram.flags.writeable = False
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "bounds", DataBounds(gram.shape[0], num_samples, lo, hi))

    @classmethod
    def of(cls, x, lo: float, hi: float) -> "AuditedGram":
        """The audited Gram matrix of an M x N dataset held in memory, records
        as columns.

        ``x.T`` is walked in views of ``GRAM_BLOCK_CELLS // M`` records, the
        blocks ``harness.read_csv_gram`` parses, so each block is clamped and
        multiplied while it is in cache, nothing inside the box is copied,
        and ``gram`` equals the Gram matrix read from a CSV of the same
        records bit for bit. Within one block that is ``x @ x.T`` bit for
        bit. An array that is not of real numbers raises DomainError.
        """
        x = as_real_array(x, "the records", DomainError, ndim=2)
        records = x.T
        per_block = max(1, GRAM_BLOCK_CELLS // records.shape[1])
        return cls((records[start:start + per_block]
                    for start in range(0, records.shape[0], per_block)), lo, hi)

    @property
    def covariance(self) -> np.ndarray:
        """X X^T / N, the value of the covariance query."""
        return self.gram / self.bounds.num_samples


def identity_sensitivity(b: DataBounds) -> float:
    """L2 sensitivity of f(X) = X: replacing one record moves at most one
    column, each of M entries by at most (hi - lo)."""
    return (b.hi - b.lo) * math.sqrt(to_float(b.num_features))


def covariance_sensitivity(b: DataBounds) -> float:
    """L2 sensitivity of f(X) = X X^T / N.

    Replacing record x by x' changes the query by (x x^T - x' x'^T) / N, whose
    Frobenius norm is at most (|x|^2 + |x'|^2) / N <= 2 M c^2 / N with
    c = max(|lo|, |hi|).
    """
    c = b.magnitude
    return 2.0 * to_float(b.num_features) * c * c / to_float(b.num_samples)


def gamma_identity(b: DataBounds) -> float:
    """Frobenius-norm bound on f(X) = X over the box: c * sqrt(M * N)."""
    return b.magnitude * math.sqrt(to_float(b.num_features * b.num_samples))


def gamma_covariance(b: DataBounds) -> float:
    """Frobenius-norm bound on f(X) = X X^T / N over the box.

    Each rank-one term x x^T has norm |x|^2 <= M c^2, and the average of N
    such terms keeps the bound: M c^2. Attained by constant +-c columns.
    """
    c = b.magnitude
    return to_float(b.num_features) * c * c


def identity_sensitivity_l1(b: DataBounds) -> float:
    """Entrywise L1 sensitivity of f(X) = X, for Laplace-style noise."""
    return (b.hi - b.lo) * to_float(b.num_features)


def covariance_sensitivity_l1(b: DataBounds) -> float:
    """Entrywise L1 sensitivity of f(X) = X X^T / N.

    |x x^T|_1 = (sum_i |x_i|)^2 <= (M c)^2, and the difference of two such
    terms divided by N gives 2 M^2 c^2 / N.
    """
    c = b.magnitude
    return 2.0 * to_float(b.num_features ** 2) * c * c / to_float(b.num_samples)


def identity_query(b: DataBounds) -> QuerySpec:
    """The identity query f(X) = X on a dataset with bounds ``b``."""
    return QuerySpec(b.num_features, b.num_samples, sensitivity=identity_sensitivity(b),
                     gamma=gamma_identity(b), kind=QueryKind.IDENTITY,
                     l1_sensitivity=identity_sensitivity_l1(b))


def covariance_query(b: DataBounds) -> QuerySpec:
    """The covariance query f(X) = X X^T / N on a dataset with bounds ``b``."""
    return QuerySpec(b.num_features, b.num_features, sensitivity=covariance_sensitivity(b),
                     gamma=gamma_covariance(b), kind=QueryKind.COVARIANCE,
                     l1_sensitivity=covariance_sensitivity_l1(b))

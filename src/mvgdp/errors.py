"""Exception hierarchy shared across the package, and the one check each of
a count, a real number, a real array, a symmetric matrix, a unit vector and
an array of positive values.

The CLI maps these onto exit codes: parameter/format/config problems exit
with 2, contract violations (a data cell that is not a number, or a query
value above its declared gamma) with 3, and internal consistency failures
(a privacy condition that should hold by construction but does not) with 4.
Data outside its declared box is no error: it is clamped into the box.
"""

import math
import numbers

import numpy as np


def is_count(value) -> bool:
    """Whether ``value`` is a plain or numpy integer, and not a bool.

    A bool is an int to isinstance, so without the second test ``True``
    would pass as the count 1 (and share its cache keys).
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number, numpy's included, and not a bool
    (see :func:`is_count`)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_count(value, name: str, error: type, minimum: int = 1) -> int:
    """``value`` as an ``int``, if it is a count (:func:`is_count`) of at
    least ``minimum``; otherwise raise ``error`` naming it ``name``."""
    if not is_count(value) or value < minimum:
        bound = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise error(f"{name} must be {bound}, got {value!r}")
    return int(value)


def to_float(value) -> float:
    """``float(value)``, except that an int too large for a float is an
    infinity of its sign, which a finiteness test rejects, not OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_real(value, name: str, error: type, positive: bool = False) -> float:
    """``value`` as a ``float``, if it is a finite real number
    (:func:`is_real`), and positive too with ``positive``; otherwise raise
    ``error`` naming it ``name``. An int too large for a float counts as
    infinite (:func:`to_float`), so it fails that test."""
    if type(value) is not float:
        if not is_real(value):
            raise error(f"{name} must be a real number, got {value!r}")
        value = to_float(value)
    low, bound = (0, "positive and finite") if positive else (-math.inf, "finite")
    if not low < value < math.inf:  # a NaN fails too
        raise error(f"{name} must be {bound}, got {value}")
    return value


_FLOAT64 = np.dtype(float)  # numpy's one instance of native float64


def as_array(value, name: str) -> np.ndarray:
    """``np.asarray(value)``, except that a ragged sequence, which numpy
    refuses with a bare ValueError, raises ShapeError naming ``name``."""
    try:
        return np.asarray(value)
    except ValueError:
        raise ShapeError(f"{name} must be a regular array, got a ragged "
                         "sequence") from None


def as_real_array(value, name: str, error: type, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float64 array, if its dtype is an integer or a float
    one; otherwise raise ``error`` naming ``name`` and the dtype. A bool,
    complex, string or object array is refused, not cast: a cast would drop
    an imaginary part or parse text as numbers. A ragged sequence raises
    ShapeError naming ``name`` (:func:`as_array`), and so does an array
    whose rank is not ``ndim``, if given, or that holds no entry, naming its
    shape too: no caller takes an empty array. A native float64 array of
    that rank is returned as it is."""
    array = as_array(value, name)
    dtype = array.dtype
    if dtype is not _FLOAT64:
        if dtype.kind not in "iuf":
            raise error(f"{name} must be real numbers, got an array of dtype {dtype}")
        array = array.astype(float)
    if ndim is not None and array.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if not array.size:
        raise ShapeError(f"{name} must hold at least one entry, got shape {array.shape}")
    return array


SYMMETRY_TOL = UNIT_TOL = 1e-8


def symmetry_fault(mat: np.ndarray, name: str) -> str | None:
    """Why the square float array ``mat``, named ``name``, is not finite and
    symmetric within ``SYMMETRY_TOL``, or ``None``. Finiteness is tested
    first, so no inf - inf warns; A - A^T is exactly antisymmetric, so its
    largest entry is the largest deviation (inf, silently, if it overflows)."""
    if not np.isfinite(mat).all():
        return f"{name} has an entry that is not finite"
    with np.errstate(over="ignore"):
        dev = float((mat - mat.T).max(initial=0.0))
    return (f"{name} deviates from symmetry by {dev:.3e}, beyond {SYMMETRY_TOL:.0e}"
            if dev > SYMMETRY_TOL else None)


def positive_fault(values: np.ndarray, name: str) -> str | None:
    """Why an entry of the non-empty float array ``values``, named ``name``,
    is not positive and finite, or ``None``. min and max propagate a NaN, so
    a NaN fails the first test, and -inf or +inf fails one of the two."""
    if values.min() > 0 and values.max() < np.inf:
        return None
    return f"{name} must be positive and finite, got {values}"


def unit_norm_fault(vs: np.ndarray) -> str | None:
    """Why a row of the 2-D float array ``vs`` is not a unit vector within
    ``UNIT_TOL``, or ``None``; a NaN, infinite or overflowing norm fails."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vs, axis=1)
    bad = norms[~(np.abs(norms - 1.0) <= UNIT_TOL)]
    return f"v must be a unit vector, got norm {float(bad[0])!r}" if bad.size else None


class MvgdpError(Exception):
    """Base class for all package errors."""


class DomainError(MvgdpError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class ShapeError(MvgdpError, ValueError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class DegenerateDesignError(MvgdpError, ValueError):
    """A covariance design is singular or numerically non-positive-definite."""


class AllocationError(MvgdpError, ValueError):
    """A precision allocation vector is invalid (zero, negative, or malformed)."""


class ContractViolationError(MvgdpError):
    """A value breaks a contract that clamping cannot repair: a data cell
    that is not a number, a query value whose norm exceeds its declared
    gamma, or a metric's argument that is not a unit vector or symmetric."""


class FormatError(MvgdpError, ValueError):
    """An input file could not be parsed."""


class ConfigError(MvgdpError, ValueError):
    """An experiment or CLI configuration is inconsistent."""


class ConditionCheckError(MvgdpError):
    """A noise design that must satisfy the privacy condition by construction
    failed the numeric check. Indicates a bug, not a user error."""

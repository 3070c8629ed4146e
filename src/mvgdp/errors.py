"""Exception hierarchy shared across the package, and the one check each
that count and real-number arguments pass.

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


def as_real(value, name: str, error: type, positive: bool = False) -> float:
    """``value`` as a ``float``, if it is a finite real number
    (:func:`is_real`), and positive too with ``positive``; otherwise raise
    ``error`` naming it ``name``. An int too large for a float counts as
    infinite, so it fails that test instead of raising OverflowError."""
    if type(value) is not float:
        if not is_real(value):
            raise error(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    low, bound = (0, "positive and finite") if positive else (-math.inf, "finite")
    if not low < value < math.inf:  # a NaN fails too
        raise error(f"{name} must be {bound}, got {value}")
    return value


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

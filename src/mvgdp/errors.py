"""Exception hierarchy shared across the package, and the one test every
count argument passes.

The CLI maps these onto exit codes: parameter/format/config problems exit
with 2, data-contract violations with 3, and internal consistency failures
(a privacy condition that should hold by construction but does not) with 4.
"""

import numpy as np


def is_count(value) -> bool:
    """Whether ``value`` is a plain or numpy integer, and not a bool.

    A bool is an int to isinstance, so without the second test ``True``
    would pass as the count 1 (and share its cache keys).
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    """Caller-declared bounds or norms are contradicted by the actual data."""


class FormatError(MvgdpError, ValueError):
    """An input file could not be parsed."""


class ConfigError(MvgdpError, ValueError):
    """An experiment or CLI configuration is inconsistent."""


class ConditionCheckError(MvgdpError):
    """A noise design that must satisfy the privacy condition by construction
    failed the numeric check. Indicates a bug, not a user error."""

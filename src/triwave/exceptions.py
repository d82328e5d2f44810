"""Exception types shared across the package, the finiteness check that the
model and family constructors share, and the integer and polynomial degree
checks."""

import cmath
import numbers
import operator
from dataclasses import fields

import numpy as np

__all__ = [
    "TriwaveError",
    "ParameterDomainError",
    "DomainError",
    "SingularParameterError",
    "ComplexWeightError",
    "RecursionBreakdownError",
    "AccuracyError",
    "UnsupportedStructureError",
    "EvaluationOverflowError",
    "QuadratureOrderError",
]


class TriwaveError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(TriwaveError, ValueError):
    """A family or model parameter violates its admissible domain."""


class DomainError(TriwaveError, ValueError):
    """An evaluation point lies outside the supported domain."""


class SingularParameterError(TriwaveError, ValueError):
    """A formula is singular at the requested parameter point."""


class ComplexWeightError(TriwaveError, ValueError):
    """The requested weight density is not real at this point."""


class RecursionBreakdownError(TriwaveError, RuntimeError):
    """A three-term recursion cannot be continued past some index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or "recursion breakdown at index n=%d" % index)


class AccuracyError(TriwaveError, RuntimeError):
    """A numeric routine failed to reach its accuracy target."""

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class UnsupportedStructureError(TriwaveError, ValueError):
    """The operation does not apply to this operator structure."""


class EvaluationOverflowError(TriwaveError, OverflowError):
    """A value overflowed to a non-finite number in floating point."""


class QuadratureOrderError(TriwaveError, ValueError):
    """The quadrature rule cannot integrate the requested degree exactly."""


def require_finite(obj):
    """Reject a NaN or infinite numeric field of the dataclass obj (real, or
    complex in either part) before any rule compares it."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, numbers.Complex) and not cmath.isfinite(value):
            raise ParameterDomainError("%s parameter %s = %r is not finite"
                                       % (type(obj).__name__, f.name, value))


def require_integer(name, value):
    """value as an int: ParameterDomainError naming the argument unless it
    is an integer (bool is not)."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterDomainError("%s must be an integer, got %r" % (name, value))


def require_degree(name, n):
    """Reject a negative polynomial degree or index bound, naming it."""
    if n < 0:
        raise ParameterDomainError("%s = %d must be >= 0" % (name, n))

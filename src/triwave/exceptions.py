"""Exception types shared across the package, the finite-and-real check that
the model and family constructors share, and the integer and polynomial
degree checks."""

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


def require_finite(obj):
    """Reject a numeric field of the dataclass obj that is NaN or infinite
    (in either part, if complex), or not real, before any rule compares it:
    ParameterDomainError naming the field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not isinstance(value, numbers.Complex):
            continue
        if not cmath.isfinite(value):
            raise ParameterDomainError("%s parameter %s = %r is not finite"
                                       % (type(obj).__name__, f.name, value))
        if not isinstance(value, numbers.Real):
            raise ParameterDomainError("%s parameter %s = %r must be real"
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
    """n as an int: ParameterDomainError naming the argument unless it is an
    integer >= 0 (a polynomial degree or index bound)."""
    n = require_integer(name, n)
    if n < 0:
        raise ParameterDomainError("%s = %d must be >= 0" % (name, n))
    return n

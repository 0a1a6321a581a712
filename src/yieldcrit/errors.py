"""Exception types shared across the library.

All errors raised by this package derive from :class:`YieldCritError`, so
callers can catch one base class at API boundaries (the CLI maps them to
exit code 2).  :func:`real` (the number rule) and :func:`count` (the count
rule) check the numeric inputs of the public API, :func:`_typed` its records.
"""

import math
import numbers
import sys


class YieldCritError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(YieldCritError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(YieldCritError):
    """A parameter record or input file violates its declared constraints."""


class DegenerateDirection(YieldCritError):
    """A deviatoric direction is undefined (q = 0 or a deviatoric meridian)."""


class DegenerateState(YieldCritError):
    """A stress state where the requested quantity loses meaning or precision."""


class CornerCase(YieldCritError):
    """A limit that does not exist because the surface has a corner there."""


class ShapeMismatch(YieldCritError):
    """Parameters do not have the structure required by a conversion."""


class ParseError(YieldCritError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InsufficientData(YieldCritError):
    """Fewer data points than free parameters."""


class UnboundedDomain(YieldCritError):
    """A sampling range is unbounded and no explicit range was given."""


class OutsideCap(YieldCritError):
    """The requested pressure lies outside the elastic cap."""


class EmptySlice(YieldCritError):
    """A requested section contains no interior point."""


class NonConvexSlice(YieldCritError):
    """A section ray crosses the yield surface more than once."""


def real(value, name: str) -> float:
    """``value`` as a float; ValidationError naming ``name`` unless it is a finite
    real number.  A bool is not one, a numpy scalar is; a float skips the slow ABC test."""
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _typed(call: str, *pairs) -> None:
    """ValidationError unless each ``(value, cls)`` of ``pairs`` has ``value`` a ``cls``,
    naming the expected and the given types (``certify needs a Criterion, got str``)."""
    for value, cls in pairs:  # a loop, not all(), which costs a generator on each sampler call
        if not isinstance(value, cls):
            want = " and ".join(f"a {c.__name__}" for _, c in pairs)
            given = " and ".join(type(v).__name__ for v, _ in pairs)
            raise ValidationError(f"{call} needs {want}, got {given}")


def count(value, name: str, least: int) -> int:
    """``value`` as an int; ValidationError naming ``name`` unless it is an integer
    (not a bool) from ``least`` to sys.maxsize.  A NaN or an infinity fails as a number."""
    if isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool):
        if least <= value <= sys.maxsize:
            return int(value)
        if abs(value) > sys.maxsize:
            raise ValidationError(f"{name} must be an integer of at least {least}, got one too large for an index")
    elif isinstance(value, float):  # a NaN or an infinity gets the number rule's message
        real(value, name)
    raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")

"""Exception types shared across the library.

All errors raised by this package derive from :class:`YieldCritError`, so
callers can catch one base class at API boundaries (the CLI maps them to
exit code 2).
"""


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

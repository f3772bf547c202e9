"""Exception types shared across the package."""


class InvsemiError(Exception):
    """Base class for all package errors."""


class OutOfDomainError(InvsemiError):
    """Raised when a partial map is applied to a point outside its domain."""


class WindowMismatchError(InvsemiError):
    """Raised when combining windowed maps truncated at different bounds."""


class NotInjectiveError(InvsemiError):
    """Raised when a pair list repeats a source or a target."""


class ParseError(InvsemiError):
    """Raised on malformed literals for maps, elements or set descriptors."""


class InvalidOpenError(InvsemiError):
    """Raised when basic-open data is inconsistent (clashing constraints)."""


class UnsupportedFamilyError(InvsemiError):
    """Raised when an analysis only defined for special block families is
    asked about a family outside its scope."""


class InvalidFamilyError(InvsemiError, ValueError):
    """Raised when blocks do not form a valid family (fewer than two, a
    finite block, an infinite or repeated overlap), or a family lies
    outside the rule an analysis needs.  It is a ``ValueError`` too, so
    callers that catch bad values keep working."""


class InvalidBoundError(InvsemiError, ValueError):
    """Raised when a rank bound is negative: every rank-bounded union
    holds the empty map, of rank 0."""


class BudgetExceededError(InvsemiError):
    """Raised when an enumeration would exceed a configured hard cap."""


class NotGeneratedError(InvsemiError):
    """Raised when asked to factor an element the block groups do not generate."""

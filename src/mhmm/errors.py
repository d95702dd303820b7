"""Error types shared across the package.

Domain errors signal invalid inputs or model structure; numerical errors
signal a computation that started from valid inputs but failed to reach
the required accuracy.
"""


class MhmmError(Exception):
    """Base class for package errors."""


class DomainError(MhmmError, ValueError):
    """Invalid input: bad structure, out-of-range value, broken precondition."""

    category = "domain"


class ParseError(DomainError):
    """Malformed text input (spec files, model files, CSV data)."""

    category = "parse"


class CapacityError(DomainError):
    """Input exceeds a hard size cap (subset enumeration stays explicit)."""

    category = "capacity"


class NumericalError(MhmmError, RuntimeError):
    """A numerical routine failed to converge to the required tolerance."""

    category = "numeric"

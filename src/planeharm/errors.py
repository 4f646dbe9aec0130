"""Exception types shared across the package, and its rule for integer arguments."""

import operator


class DomainError(ValueError):
    """An index, point, or parameter lies outside an operation's domain."""


class SectorMixingError(ValueError):
    """Integer-j and half-integer-j objects were combined."""


class ReductionLimitError(RuntimeError):
    """Rewriting exceeded the iteration cap (non-terminating rule set)."""


class UnitarityError(RuntimeError):
    """A computed rotation matrix failed its unitarity check."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


def _as_int(name: str, value) -> int:
    """value as a Python int if it is integral and not a bool, else DomainError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")

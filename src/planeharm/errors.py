"""Exception types shared across the package."""


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

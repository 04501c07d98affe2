"""Exception types raised across the package.

Every domain error derives from :class:`LoccError` so callers (and the CLI
exit-code mapping) can distinguish expected failures from genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "LoccError",
    "DimensionError",
    "ZeroVectorError",
    "ParseError",
    "SchemaError",
    "NotFoundError",
    "UnitarityError",
    "NumericalInstabilityError",
    "InvalidModeError",
    "InstrumentError",
    "TooLargeError",
]


class LoccError(Exception):
    """Base class for all expected failures in this package."""


class DimensionError(LoccError):
    """Operands have incompatible shapes or live in different factor spaces."""


class ZeroVectorError(LoccError):
    """A vector with norm at or below tolerance where a direction is required."""


class ParseError(LoccError):
    """Input text is not well-formed JSON."""


class SchemaError(LoccError):
    """Well-formed JSON (or in-memory data) that violates the expected layout or range."""


class NotFoundError(LoccError):
    """A label or catalog name that does not exist."""


class UnitarityError(LoccError):
    """A matrix that was required to be unitary is not, within tolerance."""


class NumericalInstabilityError(LoccError):
    """A quantity that should vanish structurally exceeded its numerical slack."""


class InvalidModeError(LoccError):
    """The requested decision mode does not match what the ensemble satisfies."""


class InstrumentError(LoccError):
    """A measurement instrument is incomplete or otherwise unusable."""


class TooLargeError(LoccError):
    """The instance exceeds the size guard of an exhaustive routine."""

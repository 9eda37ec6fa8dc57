"""Exception types raised by the mflscan pipeline: one per CLI exit code."""


class MflError(Exception):
    """Base class for all mflscan errors."""


class ConfigInvalid(MflError, ValueError):
    """A setting is out of range, or does not fit the record it runs on (exit 2)."""


class FormatError(MflError):
    """An input file could not be parsed, or a synthetic-record spec is invalid (exit 3)."""


class DimensionMismatch(MflError):
    """Pyramid layer dimensions are not successive halvings of the base (exit 4)."""

"""Exception types raised by the mflscan pipeline."""


class MflError(Exception):
    """Base class for all mflscan errors."""


class NonPositiveInput(MflError, ValueError):
    """A quantity that must be strictly positive was zero or negative."""


class ConfigInvalid(MflError, ValueError):
    """A setting is out of range, or does not fit the record it runs on."""


class RecordTooShort(ConfigInvalid):
    """A window or segment setting needs more axial samples than the record has."""


class ImageTooSmall(ConfigInvalid):
    """Image dimensions are too small to build a pyramid."""


class LayerSmallerThanKernel(ConfigInvalid):
    """A pyramid layer is smaller than the matching kernel."""


class DimensionMismatch(MflError):
    """Pyramid layer dimensions are not successive halvings of the base."""


class SpecInvalid(MflError):
    """A synthetic-record specification violates its invariants."""


class FormatError(MflError):
    """A record, config, or ground-truth file could not be parsed."""

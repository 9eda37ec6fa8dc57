"""Exception types raised by the mflscan pipeline: one per CLI failure exit code."""


class ConfigInvalid(ValueError):
    """A setting is out of range, or does not fit the record it runs on (exit 2)."""


class FormatError(Exception):
    """An input file could not be parsed, or a synthetic-record spec is invalid (exit 3)."""

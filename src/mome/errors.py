"""Exception hierarchy shared by every mome module.

The CLI maps these onto process exit codes: configuration and usage
problems exit 2, data and file-format problems exit 3, numeric or
tolerance failures exit 1. Numeric failures have no subclass per cause:
a ``NumericError`` names the op whose result was not finite.
"""


class MomeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MomeError):
    """Operands have incompatible dimensions."""


class ConfigError(MomeError):
    """A configuration value is out of range or unrecognized."""


class UsageError(MomeError):
    """An API was called in a way its contract forbids."""


class NumericError(MomeError):
    """A forward computation produced NaN or Inf."""


class DataError(MomeError):
    """Input data violates a documented precondition."""


class FormatError(DataError):
    """A binary or text file does not match its on-disk format.

    ``offset`` is the byte position at which the problem was detected,
    when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MetricError(MomeError):
    """A metric is undefined for the given inputs."""

"""Exception hierarchy shared by every mome module.

Each class's ``exit_code`` is the CLI's exit status for it: 2 for config
and usage errors, 1 for numeric failures and 3, the base class's, for the
rest (data, file format, metric, shape). A ``NumericError`` names the op
whose result was not finite; numeric failures have no subclass per cause.
"""


class MomeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class ShapeError(MomeError):
    """Operands have incompatible dimensions."""


class ConfigError(MomeError):
    """A configuration value is out of range or unrecognized; ``field``
    names the rejected setting when the check is about one."""

    exit_code = 2

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class UsageError(MomeError):
    """An API was called in a way its contract forbids."""

    exit_code = 2


class NumericError(MomeError):
    """A forward computation produced NaN or Inf."""

    exit_code = 1


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

"""Exception hierarchy shared across the package.

Each class carries the process ``exit_code`` that the CLI returns when it
stops on that error; a subclass inherits its parent's code unless it
declares its own.
"""


class MgnetError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ConfigError(MgnetError, ValueError):
    """Invalid configuration: bad field values, unknown keys, bad geometry."""


class ArgumentError(MgnetError, ValueError):
    """An operation was called with invalid arguments."""


class ShapeError(ArgumentError):
    """Tensor shapes are incompatible with the requested operation."""

    exit_code = 3


class StateError(MgnetError, RuntimeError):
    """An operation was invoked in an invalid state (e.g. missing gradients)."""


class FormatError(MgnetError, ValueError):
    """A file does not conform to its declared binary or text format."""

    exit_code = 3


class DataError(MgnetError, ValueError):
    """File contents are structurally valid but semantically unusable."""

    exit_code = 3


class DivergenceError(MgnetError, ArithmeticError):
    """Training produced a non-finite loss, or evaluation a non-finite logit."""

    exit_code = 4

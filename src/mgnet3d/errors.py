"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration and argument
problems exit 2, data and file-format problems exit 3, and numerical
divergence in training or evaluation exits 4.
"""


class MgnetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MgnetError, ValueError):
    """Invalid configuration: bad field values, unknown keys, bad geometry."""


class ArgumentError(MgnetError, ValueError):
    """An operation was called with invalid arguments."""


class ShapeError(ArgumentError):
    """Tensor shapes are incompatible with the requested operation."""


class StateError(MgnetError, RuntimeError):
    """An operation was invoked in an invalid state (e.g. missing gradients)."""


class FormatError(MgnetError, ValueError):
    """A file does not conform to its declared binary or text format."""


class DataError(MgnetError, ValueError):
    """File contents are structurally valid but semantically unusable."""


class DivergenceError(MgnetError, ArithmeticError):
    """Training produced a non-finite loss, or evaluation a non-finite logit."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch

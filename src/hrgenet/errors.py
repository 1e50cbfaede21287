"""Exception hierarchy shared across the package."""


class HrgeError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(HrgeError, ValueError):
    """Tensor/layer dimensions do not line up."""


class EmptyInputError(HrgeError, ValueError):
    """An operation received an empty matrix or dataset."""


class LabelError(HrgeError, ValueError):
    """A class label is outside the declared range."""


class ConfigError(HrgeError, ValueError):
    """Invalid or inconsistent configuration."""


class DataFormatError(HrgeError, ValueError):
    """A serialized file is malformed or corrupted."""


class NumericError(HrgeError, RuntimeError):
    """A numeric invariant was violated (NaN/Inf loss, failed check)."""


class StaleGraphError(HrgeError, RuntimeError):
    """backward() was called twice on the same computation graph."""

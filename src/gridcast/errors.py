"""Shared exception types."""


class ConfigError(ValueError):
    """A configuration value is out of range or internally inconsistent."""


class DataError(ValueError):
    """A data file or payload is malformed."""


class NumericsError(ArithmeticError):
    """A loss, gradient or parameter became NaN or infinite."""

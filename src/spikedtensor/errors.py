"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its admissible range, shape or domain."""


class ConfigError(ValueError):
    """An experiment configuration file or flag set is invalid."""

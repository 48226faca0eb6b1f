"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument, a configuration field or a flag is outside its
    admissible range, shape or domain."""

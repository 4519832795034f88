"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (non-finite, out of range, ...).

    ``fields`` names the fields, of the object being built, whose values
    decide the error, where the check knows them."""

    def __init__(self, message: str, fields: tuple[str, ...] = ()):
        super().__init__(message)
        self.fields = fields


class NumericalDegeneracyError(ArithmeticError):
    """A numerically required quantity is singular or too ill-conditioned to invert."""


class ConfigError(ValueError):
    """A configuration file failed to parse or validate; the message names the problem."""

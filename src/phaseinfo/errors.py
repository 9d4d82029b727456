"""Exception types shared across the package."""

__all__ = [
    "PhaseinfoError",
    "InvalidStateError",
    "InvalidDensityError",
    "ConfigurationError",
    "DegeneratePosteriorError",
    "UndefinedAsymptoteError",
]


class PhaseinfoError(Exception):
    """Base class for errors raised by this package."""


class InvalidStateError(PhaseinfoError, ValueError):
    """A state vector failed validation (shape, finiteness, or norm)."""


class InvalidDensityError(PhaseinfoError, ValueError):
    """A circular density failed validation (shape, sign, finiteness, or mass)."""


class ConfigurationError(PhaseinfoError, ValueError):
    """A parameter is outside its documented range (grid size, counts, ...)."""


class DegeneratePosteriorError(PhaseinfoError, ArithmeticError):
    """A Bayesian update produced zero mass at every grid node."""


class UndefinedAsymptoteError(PhaseinfoError, ValueError):
    """The large-sample information formula was requested with no Fisher
    information to feed it."""

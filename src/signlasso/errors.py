"""Exception taxonomy shared across the package."""


class SignLassoError(Exception):
    """Base class for all package-specific errors."""


class DegenerateWeightError(SignLassoError):
    """A working weight fell below the usable floor (near-zero intensity)."""


class NumericalError(SignLassoError):
    """A computation produced a non-finite value where a finite one is required."""


class RankDeficientError(SignLassoError):
    """The design matrix does not have full column rank."""


class EmptySupportError(SignLassoError):
    """An operation requiring a nonempty active set received an empty one."""


class SingularBlockError(SignLassoError):
    """The active-block Gram matrix is numerically singular."""


class RangeError(SignLassoError):
    """An argument fell outside the supported exact-arithmetic range."""


class ConfigError(SignLassoError, ValueError):
    """An invalid input value; the message carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class BadGeneratorError(ConfigError):
    """Unknown design-matrix generator name."""

"""Exception types shared across the package."""


class EggMetricsError(Exception):
    """Base class for all package errors."""


class DomainError(EggMetricsError, ValueError):
    """Input outside the domain of validity (point outside the egg, bad parameter range)."""


class ConfigurationError(EggMetricsError, ValueError):
    """Inputs are individually valid but the requested configuration is unsupported."""


class NumericalError(EggMetricsError, RuntimeError):
    """A numerical procedure failed to converge.

    Carries the last bracketing interval when a root solve is involved.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class SeamProximityError(NumericalError):
    """A derivative of the metric was asked for on Z or M0, where it is not C2."""

    def __init__(self, message: str):
        super().__init__(message, bracket=None)

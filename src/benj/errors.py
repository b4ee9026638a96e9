"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A model or generator parameter violates its admissible range."""


class SpectrumError(ParameterError):
    """A Fourier-multiplier precondition fails on a specific grid mode."""

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode


class BandwidthError(ValueError):
    """A bandwidth below 1, a grid too coarse for a bandwidth, or a truncation above it."""


class ShapeError(ValueError):
    """Two fields that must share bandwidth and domain scale do not."""


class DivergenceError(RuntimeError):
    """Time integration produced nonfinite or explosively growing coefficients."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class IterationError(RuntimeError):
    """A fixed-point iteration failed to reach its tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class ConfigError(ValueError):
    """A run configuration document is malformed or fails validation."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key

"""Shared exception types."""


class CneError(Exception):
    """Base class for all package errors."""


class ConfigError(CneError, ValueError):
    """A run setting the program cannot run with, alone or on the data it was given."""


class DataError(CneError):
    """Invalid or unparseable dataset input."""


class GraphError(CneError):
    """Invalid neighbor-graph construction or query."""


class SamplingError(CneError):
    """Invalid batch-sampling request."""


class LossNumericsError(CneError):
    """A loss produced a non-finite value or gradient."""


class DivergenceError(CneError):
    """Optimization produced non-finite coordinates or weights."""

    def __init__(self, epoch: int, step: int, what: str = "coordinates"):
        self.epoch = epoch
        self.step = step
        super().__init__(
            f"non-finite {what} at epoch {epoch}, step {step}; "
            "reduce the learning rate"
        )

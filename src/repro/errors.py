"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A table, column, or type was referenced or defined inconsistently."""


class ParseError(ReproError):
    """A SQL string could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BindError(ReproError):
    """A parsed query references tables or columns unknown to the catalog."""


class EstimationError(ReproError):
    """An estimator could not produce an estimate for the given query."""


class ModelError(ReproError):
    """A learned model is malformed, missing, or failed (de)serialization."""


class ValidationError(ModelError):
    """A model failed the ModelValidator's size or health checks."""


class TrainingError(ModelError):
    """Model training could not complete (bad data, no convergence, ...)."""


class ExecutionError(ReproError):
    """The execution engine could not run a physical plan."""


class FleetError(ReproError):
    """The multi-process serving fleet failed to start, route, or stop."""


class ConnectionClosed(FleetError):
    """The peer closed its end of a fleet IPC connection."""


class WorkerDied(FleetError):
    """A fleet worker process exited or lost its connection mid-request."""

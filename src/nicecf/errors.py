"""Exception hierarchy for the counterfactual engine.

Every error raised by this package derives from :class:`EngineError`, so
callers can catch one type at an API boundary. Subclasses mark the subsystem
that failed; the CLI maps them onto exit codes.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EngineError):
    """Invalid configuration value (fraction out of range, even k, bad spec string)."""


class IngestError(EngineError):
    """A CSV/schema problem at a specific cell.

    ``row`` is the 0-based data row (header excluded), ``column`` the feature
    name; either may be None when the problem is structural (header mismatch).
    The message names only the parts that are known.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        known = [f"{name}={value!r}" for name, value in (("row", row), ("column", column))
                 if value is not None]
        super().__init__(message + (f" ({', '.join(known)})" if known else ""))
        self.row = row
        self.column = column


class StatsError(EngineError):
    """Statistics cannot be fitted (e.g. empty training data)."""


class EncodeError(EngineError):
    """An instance cannot be encoded or scored against fitted statistics."""


class DistanceError(EngineError):
    """Statistics that do not describe a dataset's features, or a bad weight, k or label set.

    A row of the wrong length is an :class:`EncodeError`, as every row-rule break is.
    """


class TrainError(EngineError):
    """A built-in model or the autoencoder cannot train on this data: no labels, too few rows."""


class ModelIOError(EngineError):
    """Transport or protocol failure while scoring through an external model."""


class NoUnlikeNeighborError(EngineError):
    """Raised by :func:`~nicecf.distance.nearest_unlike_neighbor` when no training
    row is both predicted as the opposite class and correctly classified."""


class EvalError(EngineError):
    """Benchmark aggregation received inconsistent or degenerate inputs."""

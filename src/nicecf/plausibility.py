"""Autoencoder reconstruction error as a plausibility score.

A small fixed autoencoder (one sigmoid hidden layer of half the encoded
width, identity output, mean squared error over all matrix entries) is
trained on the numeric encoding of the training rows by full-batch gradient
descent. The reconstruction error of an instance, the mean squared
difference between its encoding and the reconstruction, is low near the
training manifold and grows for implausible inputs.

Any callable mapping an instance to a non-negative float can stand in for
the autoencoder wherever a plausibility scorer is accepted. A scorer may also
have a ``swap_state(current, target)`` method, an exact fast path for the
greedy search's single-feature hybrids (see :func:`swap_state`); the
autoencoder scorer has one.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import ConfigError, TrainError
from .rng import SplitMix64
from .tabular import (
    Dataset,
    EncodedSwaps,
    FeatureStats,
    HybridSwaps,
    Instance,
    _encode_training_rows,
    _plan,
    encode,
)

log = logging.getLogger(__name__)

# Plausibility scorer interface: instance -> non-negative float, lower = more
# plausible. The autoencoder provides the default implementation.
PlausibilityScorer = Callable[[Instance], float]


@dataclass(frozen=True)
class AEConfig:
    epochs: int = 200
    step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.step <= 0.0:
            raise ConfigError("epochs must be >= 1 and step > 0")


class AEModel:
    """Trained autoencoder: layers [m, ceil(m/2), m], immutable after training.

    ``w1`` is (m, h), ``w2`` is (h, m); hidden activation is the logistic
    sigmoid, the output layer is linear. ``loss_history`` holds the training
    loss before each update (empty for models built by hand).
    """

    def __init__(
        self,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
        loss_history: tuple[float, ...] = (),
    ):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.loss_history = loss_history
        m, h = self.w1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h, m) or self.b2.shape != (m,):
            raise ConfigError("autoencoder parameter shapes are inconsistent")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ConfigError("autoencoder parameters contain non-finite values")

    @property
    def width(self) -> int:
        return self.w1.shape[0]

    def reconstruct(self, v: np.ndarray) -> np.ndarray:
        """Map one encoded vector through the network."""
        hidden = expit(v @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2


def loss_and_gradients(
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
    X: np.ndarray,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Mean squared reconstruction loss over all entries of X, with gradients.

    Exposed separately from training so the analytic gradients can be checked
    against finite differences.
    """
    n, m = X.shape
    hidden = expit(X @ w1 + b1)
    out = hidden @ w2 + b2
    diff = out - X
    loss = float(np.sum(diff * diff)) / (n * m)
    d_out = (2.0 / (n * m)) * diff
    g_w2 = hidden.T @ d_out
    g_b2 = d_out.sum(axis=0)
    d_hidden = (d_out @ w2.T) * hidden * (1.0 - hidden)
    g_w1 = X.T @ d_hidden
    g_b1 = d_hidden.sum(axis=0)
    return loss, (g_w1, g_b1, g_w2, g_b2)


def train_autoencoder(
    train: Dataset, config: AEConfig, stats: Sequence[FeatureStats]
) -> AEModel:
    """Fit the autoencoder on the encoded training rows.

    All parameters (both weight matrices, then both biases, in the order
    w1 row-major, b1, w2 row-major, b2) are initialized uniformly in
    [-0.1, 0.1] from a deterministic stream seeded by ``config.seed``, so
    identical inputs always produce bit-identical models. Statistics that
    do not describe ``train`` raise :class:`DistanceError`.
    """
    if len(train) < 2:
        raise TrainError("autoencoder training needs at least 2 rows")
    X = _encode_training_rows(stats, train)
    if bool(np.all(X == X[0])):
        log.warning("all training rows encode identically; autoencoder will be degenerate")
    m = X.shape[1]
    h = math.ceil(m / 2)
    rng = SplitMix64(config.seed)

    def draw(shape: tuple[int, ...]) -> np.ndarray:
        flat = np.asarray([rng.uniform(-0.1, 0.1) for _ in range(int(np.prod(shape)))])
        return flat.reshape(shape)

    w1 = draw((m, h))
    b1 = draw((h,))
    w2 = draw((h, m))
    b2 = draw((m,))
    history = []
    for _ in range(config.epochs):
        loss, (g_w1, g_b1, g_w2, g_b2) = loss_and_gradients(w1, b1, w2, b2, X)
        history.append(loss)
        w1 = w1 - config.step * g_w1
        b1 = b1 - config.step * g_b1
        w2 = w2 - config.step * g_w2
        b2 = b2 - config.step * g_b2
    return AEModel(w1, b1, w2, b2, tuple(history))


def ae_error(ae: AEModel, stats: Sequence[FeatureStats], x: Instance) -> float:
    """Mean squared difference between encode(x) and its reconstruction.

    ``inf``, without a warning, when the square overflows: unclipped scaling
    encodes a value far outside a tiny training range as a huge number, or
    as ``inf``, which the network can turn into NaN.
    """
    v = encode(stats, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _vector_error(ae, v)


def _vector_error(ae: AEModel, v: np.ndarray) -> float:
    # One encoded vector at a time, never one matrix product over a batch:
    # rows of X @ w1 differ from x @ w1 in the last bits. Callers silence
    # overflow and invalid values once per call, not once per vector.
    if v.shape[0] != ae.width:
        raise ConfigError(
            f"statistics encode to width {v.shape[0]}, autoencoder expects {ae.width}"
        )
    diff = ae.reconstruct(v) - v
    error = float(np.dot(diff, diff)) / ae.width
    # NaN comes only from infinite entries (inf - inf, inf * 0): the true error overflows.
    return math.inf if math.isnan(error) else error


class AEScorer:
    """A trained autoencoder bound to statistics: ``scorer(x) == ae_error(ae, stats, x)``."""

    def __init__(self, ae: AEModel, stats: Sequence[FeatureStats]):
        self.ae = ae
        self.stats = _plan(stats)

    def __call__(self, x: Instance) -> float:
        return ae_error(self.ae, self.stats, x)

    def swap_state(self, current: Instance, target: Instance) -> EncodedSwaps:
        """Exact fast path: two encodings for the whole search, patched per feature."""
        return EncodedSwaps(self.stats, current, target, functools.partial(_vector_error, self.ae))


def ae_scorer(ae: AEModel, stats: Sequence[FeatureStats]) -> AEScorer:
    """Bind a trained autoencoder and statistics into a plausibility scorer."""
    return AEScorer(ae, stats)


def swap_state(scorer: PlausibilityScorer, current: Instance, target: Instance):
    """State of one greedy search from ``current`` toward ``target``, for ``scorer``.

    Its ``scores(features)`` gives ``scorer`` of the state's current row with
    feature j taken from ``target``, for each j in ``features``; its
    ``take(j)`` copies feature j into that row. Uses the scorer's own
    ``swap_state`` when it has one; a plain callable scores each hybrid in turn.
    """
    own = getattr(scorer, "swap_state", None)
    if own is not None:
        return own(current, target)
    return HybridSwaps(current, target, lambda hybrids: [scorer(h) for h in hybrids])

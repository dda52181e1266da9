"""Classifier handles: built-in trainers and external model adapters.

Every model is used through the same handle interface: ``score`` returns the
probability of class 1 for one instance, ``predict`` thresholds it at 0.5
(ties go to class 1), and the batch variants do the same for many rows.
``score(x)`` is defined as ``score_batch([x])[0]`` so single and batched
scoring can never disagree. A subclass implements ``score_batch``; it may
also override ``swap_state``, which serves the greedy search's one question
("score ``current`` with feature j taken from ``target``, for each j") for a
whole search, as an exact fast path. The default builds the hybrids and
calls ``score_batch``; the logistic model patches two encodings, and the
kNN model adds one vector per hybrid and per taken feature to a distance
vector and re-sums exactly only the rows near each hybrid's k-th distance.

The logistic model has one row scorer over a matrix of encoded rows, one
stacked BLAS call per batch, through which ``score``, ``score_batch`` and its
swap state all go: every row's score has the bits of that row scored alone.

Built-in models operate on the numeric encoding of the training statistics.
External models receive raw feature values over a line-oriented JSON
protocol, either through a long-lived subprocess or an HTTP endpoint:

    request:  {"instances": [[value, ...], ...]}
    response: {"scores": [p, ...]}

with one JSON object per line (subprocess) or per POST body (HTTP). Scores
must be numbers in [0, 1], one per instance, in order.
"""

from __future__ import annotations

import http.client
import json
import math
import numbers
import shlex
import subprocess
import threading
import urllib.error
import urllib.request
from typing import Sequence

import numpy as np
from scipy.special import expit

# heom_to_rows is unused here but stays importable from this module:
# bench/tracing.py rebinds nicecf.model.heom_to_rows by name.
from .distance import _term_matrix, _weighted_scan, heom_to_rows, k_smallest  # noqa: F401
from .errors import ConfigError, EncodeError, ModelIOError, TrainError
from .tabular import (
    Dataset,
    EncodedSwaps,
    FeatureStats,
    HybridSwaps,
    Instance,
    _OUT_OF_RANGE,
    _aligned_rows,
    _check_descent,
    _encode_training_rows,
    _plan,
    encode,
)


def _predicted(p: float | np.ndarray) -> int | np.ndarray:
    """Class 1 for a score of 0.5 or more, else 0; an int64 array for an array of scores."""
    class_1 = p >= 0.5
    return class_1.astype(np.int64) if isinstance(class_1, np.ndarray) else int(class_1)


class ClassifierHandle:
    """Uniform scoring interface.

    Subclasses implement ``score_batch``. ``swap_state`` is the one optional
    override: a fast path whose state must score exactly what the default's does.
    """

    def score_batch(self, xs: Sequence[Instance]) -> np.ndarray:
        raise NotImplementedError

    def swap_state(self, current: Instance, target: Instance):
        """State of one greedy search from ``current`` toward ``target``.

        Its ``scores(features)`` gives the score of the state's current row
        with feature j taken from ``target``, for each j in ``features``; its
        ``take(j)`` copies feature j into that row. The default builds each
        hybrid and calls ``score_batch``.
        """
        return HybridSwaps(current, target, self.score_batch)

    def score(self, x: Instance) -> float:
        return float(self.score_batch([x])[0])

    def predict(self, x: Instance) -> int:
        return _predicted(self.score(x))

    def predict_batch(self, xs: Sequence[Instance]) -> np.ndarray:
        return _predicted(self.score_batch(xs))

    def close(self) -> None:
        """Release whatever the handle holds open; built-in models hold nothing."""


class LogisticHandle(ClassifierHandle):
    """Logistic regression over the numeric encoding."""

    def __init__(self, stats: Sequence[FeatureStats], coef: np.ndarray, intercept: float):
        self.stats = _plan(stats)
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    def score_batch(self, xs: Sequence[Instance]) -> np.ndarray:
        rows = _aligned_rows(len(xs), len(self.coef))
        for row, x in zip(rows, xs):
            row[:] = encode(self.stats, x)
        return np.array(self._score_rows(rows), dtype=np.float64)

    def swap_state(self, current: Instance, target: Instance) -> EncodedSwaps:
        """Exact fast path: two encodings for the whole search, patched per feature."""
        return EncodedSwaps(self.stats, current, target, self._score_rows)

    def _score_rows(self, rows: np.ndarray) -> list[float]:
        """The score of each row of an :func:`_aligned_rows` matrix of encodings.

        One stacked ``matmul`` by the coefficients, which numpy hands row by
        row to the BLAS dot product of ``np.dot(row, coef)``: each score has
        the bits of its row alone. Overflow gives inf without a warning;
        ``_sigmoid`` raises for the NaN of inf - inf.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.matmul(rows[:, None, :], self.coef[:, None])[:, 0, 0]
        return [_sigmoid(zi + self.intercept) for zi in z.tolist()]


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    if z < 0.0:
        e = math.exp(z)
        return e / (1.0 + e)
    # NaN, which an encoding holding both inf and -inf terms gives: no score is right.
    raise EncodeError("row cannot be scored: its encoding adds +inf and -inf")


def train_logistic(
    stats: Sequence[FeatureStats],
    train: Dataset,
    epochs: int = 500,
    step: float = 0.5,
) -> LogisticHandle:
    """Full-batch gradient descent on the mean log-loss.

    Weights start at zero, so the fit is deterministic. Statistics that do
    not describe ``train`` raise :class:`DistanceError`; ``epochs`` other
    than an integer >= 1, or ``step`` other than a finite number > 0, raise
    :class:`ConfigError`.
    """
    if train.labels is None:
        raise TrainError("training dataset has no labels")
    if len(train) == 0:
        raise TrainError("cannot train on an empty dataset")
    _check_descent(epochs, step)
    step = float(step)  # a NumPy float32 step would round the intercept to float32
    X = _encode_training_rows(stats, train)
    y = train.label_array()  # 0 and 1 promote to float64 exactly
    n = len(train)
    coef = np.zeros(X.shape[1], dtype=np.float64)
    intercept = 0.0
    for _ in range(epochs):
        z = X @ coef + intercept
        err = expit(z) - y
        coef -= step * (X.T @ err) / n
        intercept -= step * float(err.mean())
    return LogisticHandle(stats, coef, intercept)


class KnnHandle(ClassifierHandle):
    """k-nearest-neighbor vote over the training rows under the unweighted mixed-type metric.

    A batch is scored in chunks of at most ``CHUNK_ROWS`` rows. Each chunk is
    one ``_weighted_scan`` (per-feature terms shared by the rows holding the
    same value), so a chunk's distance matrix stays a few megabytes however
    long the batch. Each row's neighbors are then selected with
    :func:`k_smallest`, not by sorting all its distances, and ``_votes``
    casts all their votes at once. Scores are bit-identical to
    ``heom_to_rows`` and a full (distance, row index) sort, one row at a
    time. ``swap_state`` gives the same scores from distance terms kept for
    the whole search (see :class:`_KnnSwaps`), or the default when some
    distance it could meet is infinite or too large.
    Statistics that do not describe ``train`` raise :class:`DistanceError`.
    A row that breaks ``train.rule`` (which ``fit_stats(train)`` carries
    too), a row of the wrong length included, raises :class:`EncodeError`
    before any row is scored, in ``score_batch`` and in ``swap_state`` alike.
    """

    CHUNK_ROWS = 64

    def __init__(self, stats: Sequence[FeatureStats], train: Dataset, k: int):
        self.stats = _plan(stats)
        self.stats._check_dataset(train)
        self.train = train
        self.k = k
        self._ranges = [s.range for s in self.stats]
        self._weights = (1.0,) * len(self.stats)
        self._labels = train.label_array()

    def swap_state(self, current: Instance, target: Instance) -> _KnnSwaps | HybridSwaps:
        """Exact fast path: one distance update per hybrid, then an exact re-sum of the near ties.

        Falls back to the default when some distance the search can meet is
        not finite, or too large for :class:`_KnnSwaps`' error bound.
        """
        self.train.rule.check(current)
        self.train.rule.check(target)
        state = _KnnSwaps(*(_term_matrix(self.stats, x, self.train) for x in (current, target)),
                          self.k, self._votes)
        # The headroom keeps every sum within the error bound of reach finite.
        if not state.reach <= np.finfo(np.float64).max / 4:
            return super().swap_state(current, target)
        return state

    def score_batch(self, xs: Sequence[Instance]) -> np.ndarray:
        for x in xs:
            self.train.rule.check(x)
        nearest = np.empty((len(xs), self.k), dtype=np.intp)
        for start in range(0, len(xs), self.CHUNK_ROWS):
            chunk = xs[start : start + self.CHUNK_ROWS]
            d = _weighted_scan(self.stats, self._ranges, chunk, self.train, self._weights)
            for i, row in enumerate(d, start):
                nearest[i] = k_smallest(row, self.k)
        return self._votes(nearest)

    def _votes(self, nearest: np.ndarray) -> np.ndarray:
        """The score of each row of ``nearest``, a (rows, k) matrix of nearest training rows."""
        return self._labels[nearest].sum(axis=1) / self.k


def _schema_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums of a C-contiguous (features, n) matrix, added in schema order as in a scan."""
    # np.add.reduce over axis 0 adds such a matrix's rows in order, but it
    # sums a lone column pairwise, so a lone column is summed as two copies.
    n = terms.shape[1]
    return np.add.reduce(terms if n > 1 else np.repeat(terms, 2, axis=1), axis=0)[:n]


class _KnnSwaps:
    """The kNN handle's swap state: filter rows by an updated distance, then rank them exactly.

    It holds, per feature and training row, the distance terms of the
    current row (``cur``) and of ``target`` (``tgt``), their difference
    ``step = tgt - cur``, each feature's largest |step| (``move``), and
    ``d``, the current row's distances: first its terms summed in schema
    order, as ``score_batch`` sums them; ``take(j)`` copies j's terms into
    ``cur`` and adds ``step[j]`` to ``d``. One state serves one search. For
    the hybrid taking feature j, ``approx = d + step[j]`` stands in for a
    scan. ``scores`` keeps the rows whose ``approx`` lies within 2 ``delta``
    of the hybrid's k-th smallest ``approx``, re-sums only those exactly in
    schema order, and votes with the first k by (distance, row index): the
    rows ``score_batch`` picks, so every score is bit for bit the same.

    Why ``delta`` suffices. Let u = eps / 2, n the feature count, and M the
    largest real distance the search can meet. A term of a row it reaches is
    current's or target's, so at most current's plus |step|, and
    ``reach = (max(d) + sum(move)) (1 + 4 n eps)`` is at least M (inf or NaN
    when a term is). Terms are finite and non-negative, and a float addition
    or subtraction rounds by at most u of its result, subnormal results
    included. For one hybrid and one row, let s be the hybrid's schema-order
    sum and H its real sum: |s - H| <= (n - 1) u M. The first ``d`` is off
    its real sum by at most (n - 1) u M. A take adds at most 2 u M, u M in
    ``step[j]`` (both terms lie in [0, M]) and u M in the addition, and at
    most n takes add any, as ``take`` zeroes ``step[j]``. So ``d`` stays
    within (3 n - 1) u M, ``step[j]`` and the addition add 2 u M, and
    |approx - s| <= 4 n u M = 2 n eps M, up to terms in (n u)^2.
    ``delta = 4 (n + 2) eps reach`` exceeds that by a factor over 2, which
    covers rounding ``reach``, ``delta`` and the cut-offs below. Let kth be
    the hybrid's k-th smallest ``approx``. Its k rows have s <= kth + delta,
    so the k-th smallest s is at most kth + delta. A dropped row has
    s >= approx - delta > kth + delta: it ranks after the k-th whatever its
    index. A row among the first k has approx <= s + delta <= kth + 2 delta:
    it is kept.

    Only rows near the current row's nearest can be kept, so ``scores``
    builds ``approx`` for those alone. Let kth_d be the k-th smallest ``d``
    and B the largest |step[j]| of the listed features. Every ``approx`` lies
    within B of ``d``, up to rounding, so kth <= kth_d + B, and a kept row
    has d <= kth_d + 2 B + 2 delta. The rows with d <= kth_d + 2 (B + 2 delta)
    therefore hold every kept row and the k rows of smallest ``approx``, and
    give the same kth and the same kept rows as all rows do.
    """

    def __init__(self, cur: np.ndarray, tgt: np.ndarray, k: int, votes):
        self._cur, self._tgt = cur, tgt
        eps = np.finfo(np.float64).eps
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the reach test
            self._step = tgt - cur
            self._move = np.maximum(self._step.max(axis=1), -self._step.min(axis=1))
            self._d = _schema_sum(cur)
            self.reach = (self._d.max() + self._move.sum()) * (1.0 + 4.0 * len(cur) * eps)
            self._delta = 4.0 * (len(cur) + 2) * eps * self.reach
        self._k, self._votes = k, votes

    def scores(self, features: Sequence[int]) -> list:
        fs = np.asarray(features, dtype=np.intp)
        k, delta = self._k, self._delta
        move = self._move.take(fs).max(initial=0.0)
        kth_d = np.partition(self._d, k - 1)[k - 1]
        near = np.flatnonzero(self._d <= kth_d + 2.0 * (move + 2.0 * delta))
        approx = self._step.take(near, axis=1).take(fs, axis=0)  # 3x faster than np.ix_
        approx += self._d[near]
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # Flat indices ascend, and so do their hybrids; 2-D nonzero is several times slower.
        hybrid, at = np.divmod(np.flatnonzero(approx <= (kth + 2.0 * delta)[:, None]), len(near))
        rows = near[at]
        feature = fs[hybrid]
        terms = self._cur.take(rows, axis=1)  # C-contiguous, as _schema_sum needs
        terms[feature, np.arange(len(rows))] = self._tgt[feature, rows]
        ranked = rows[np.lexsort((rows, _schema_sum(terms), hybrid))]
        starts = np.searchsorted(hybrid, np.arange(len(fs)))
        return self._votes(ranked[starts[:, None] + np.arange(k)]).tolist()

    def take(self, j: int) -> None:
        self._d += self._step[j]
        self._cur[j] = self._tgt[j]
        self._step[j] = 0.0
        self._move[j] = 0.0


def train_knn_classifier(
    stats: Sequence[FeatureStats],
    train: Dataset,
    k: int = 5,
) -> KnnHandle:
    """Memorize the training rows; score = class-1 fraction among the k nearest.

    ``k`` must be an odd integer (not a bool), so that no vote splits evenly,
    and at most the training size. Distances are the unweighted HEOM of
    :func:`heom_to_rows`, and the k nearest are the first k in
    :func:`k_smallest` order. ``stats`` must name the training schema's features in order.
    """
    if train.labels is None:
        raise TrainError("training dataset has no labels")
    if len(train) == 0:
        raise TrainError("cannot train on an empty dataset")
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1 or k % 2 == 0:
        raise ConfigError(f"k must be a positive odd integer, got {k!r}")
    if k > len(train):
        raise ConfigError(f"k={k} exceeds training size {len(train)}")
    return KnnHandle(stats, train, int(k))


# --- external models -------------------------------------------------------


def _json_safe(x: Instance) -> list:
    # Adding 0.0 sends -0.0 as 0.0: the search and HEOM treat the two as one value.
    try:
        out = [v if isinstance(v, str) else float(v) + 0.0 for v in x]
    except OverflowError:
        raise EncodeError(
            f"external models take finite numbers only, got an {_OUT_OF_RANGE}"
        ) from None
    # JSON has no NaN or Infinity; json.dumps would write them anyway.
    if any(not isinstance(v, str) and not math.isfinite(v) for v in out):
        raise EncodeError(f"external models take finite numbers only, got {x!r}")
    return out


def _parse_scores(text: str, expected: int, origin: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also: over 4300 digits, too deep nesting
        raise ModelIOError(f"{origin}: reply is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("scores"), list):
        raise ModelIOError(f"{origin}: reply must be an object with a 'scores' list")
    scores = doc["scores"]
    if len(scores) != expected:
        raise ModelIOError(
            f"{origin}: expected {expected} scores, got {len(scores)}"
        )
    out = np.empty(expected, dtype=np.float64)
    for i, s in enumerate(scores):
        try:
            finite = not isinstance(s, bool) and isinstance(s, (int, float)) and math.isfinite(s)
        except OverflowError:
            raise ModelIOError(f"{origin}: score {i} is an {_OUT_OF_RANGE}") from None
        if not finite:
            raise ModelIOError(f"{origin}: score {i} is not a finite number: {s!r}")
        if not 0.0 <= s <= 1.0:
            raise ModelIOError(f"{origin}: score {i} out of [0, 1]: {s}")
        out[i] = float(s)
    return out


class SubprocessTransport:
    """One long-lived worker process; one JSON line out, one JSON line back."""

    def __init__(self, command: str):
        self.command = command
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is not None:
            self._release()
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    shlex.split(self.command),
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as exc:
                raise ModelIOError(f"cannot start '{self.command}': {exc}") from exc
        return self._proc

    def request(self, payload: dict, expected: int) -> np.ndarray:
        with self._lock:
            proc = self._ensure()
            try:
                proc.stdin.write(json.dumps(payload) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            except OSError as exc:
                raise ModelIOError(f"worker '{self.command}' pipe failed: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise ModelIOError(f"worker '{self.command}' reply is not UTF-8: {exc}") from exc
            if line == "":
                raise ModelIOError(f"worker '{self.command}' closed its output")
            return _parse_scores(line, expected, f"worker '{self.command}'")

    def _release(self) -> None:
        """Close the worker's input and reap it; kill it if it has not exited in 5 s."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker exited with input still buffered
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        with self._lock:
            self._release()


class HttpTransport:
    """Stateless POST of the same JSON payload to a scoring endpoint, ``TIMEOUT_S`` per request."""

    TIMEOUT_S = 30.0

    def __init__(self, url: str):
        self.url = url

    def request(self, payload: dict, expected: int) -> np.ndarray:
        req = urllib.request.Request(
            self.url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.TIMEOUT_S) as resp:
                body = resp.read().decode("utf-8")
        except (urllib.error.URLError, http.client.HTTPException, OSError, ValueError) as exc:
            raise ModelIOError(f"endpoint {self.url}: {exc}") from exc
        return _parse_scores(body, expected, f"endpoint {self.url}")

    def close(self) -> None:
        pass


class ExternalHandle(ClassifierHandle):
    """Scores rows through a transport, ``BATCH_ROWS`` per request, all checked before the first."""

    BATCH_ROWS = 256

    def __init__(self, transport):
        self.transport = transport

    def score_batch(self, xs: Sequence[Instance]) -> np.ndarray:
        instances = [_json_safe(x) for x in xs]
        chunks = [np.empty(0, dtype=np.float64)]  # no rows make no request and no scores
        for start in range(0, len(xs), self.BATCH_ROWS):
            part = instances[start : start + self.BATCH_ROWS]
            chunks.append(self.transport.request({"instances": part}, len(part)))
        return np.concatenate(chunks)

    def close(self) -> None:
        self.transport.close()


def external_model(spec: str) -> ExternalHandle:
    """Build a handle from a model spec string.

    ``proc:CMD`` starts CMD as a worker process speaking newline-delimited
    JSON on stdin/stdout. ``http:URL`` posts to URL; the URL may carry its
    own scheme (``http:https://host/score``) or omit it (``http://host`` and
    ``http:host:8000/score`` both work). Any other spec raises :class:`ConfigError`.
    """
    if spec.startswith("proc:"):
        command = spec[len("proc:") :]
        if not command.strip():
            raise ConfigError("proc: model spec has an empty command")
        return ExternalHandle(SubprocessTransport(command))
    if spec.startswith("http:"):
        rest = spec[len("http:") :]
        if rest.startswith("//"):
            url = "http:" + rest
        elif rest.startswith(("http://", "https://")):
            url = rest
        elif rest:
            url = "http://" + rest
        else:
            raise ConfigError("http: model spec has an empty URL")
        return ExternalHandle(HttpTransport(url))
    raise ConfigError(f"unrecognized model spec '{spec}'")

"""Counterfactual explainers for binary classifiers over mixed tabular data.

The main family is a nearest-neighbor hybrid search: find the nearest
correctly-predicted training instance of the opposite class (the anchor),
then greedily copy one anchor value at a time into the source instance,
each iteration keeping the candidate that maximizes a reward, until the
predicted class flips. Because the anchor itself is a class-flipping hybrid,
the search always terminates with a valid counterfactual.

Reward kinds, with s(x) = 2 p(x) - 1 the signed score of class 1 and
y_hat = +1 when the source is predicted class 1, else -1:

- none:        no search; the anchor is returned directly.
- spars:       y_hat * (s(prev) - s(cand)); since each step changes exactly
               one feature, maximizing score drop per step favors sparsity.
- prox:        the same score drop divided by the weighted distance increase
               of the step (guarded below by ``_EPSILON``).
- plaus:       the score drop multiplied by the reconstruction-error drop
               of a plausibility scorer. Note the product form can reward a
               candidate whose score change AND plausibility change are both
               negative (two negative factors); this follows the reward's
               definition literally and is not repaired here.

Three reference baselines are included: a nearest opposite-predicted
training row without any correctness filter and with per-std numeric
scaling (wit); sedc, which is the same greedy search with the sparsity
reward run toward the training mean/mode instance instead of a training
row, and so has no flip guarantee; and a case-based explainer reusing
pairs of training rows that differ in at most two features (cbr).

Every explainer starts from one record of its source: the source held to
the row rule of :class:`Dataset` (raising :class:`EncodeError` for a source
that breaks it, whatever the model), its score, and its nearest unlike
neighbour once a hybrid search has looked it up. Each thread keeps the last
record it made on the context, and the next explainer on the same tuple, the
same model and the same weights starts from it, so running all seven
explainers on a source checks it, scores it and scans for its neighbour once.
The time of that score and scan still counts in the ``elapsed_ms`` of every
explainer that uses them, so each reports its full cost whatever ran first.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .distance import (
    _weighted_scan,
    check_weights,
    heom_feature,
    heom_to_rows,
    k_smallest,
    nearest_unlike_neighbor,
)
from .errors import ConfigError, NoUnlikeNeighborError
from .model import ClassifierHandle, _predicted
from .plausibility import PlausibilityScorer, swap_state
from .tabular import Dataset, FeatureKind, FeatureStats, Instance, _plan


class RewardKind(Enum):
    NONE = "none"
    SPARSITY = "spars"
    PROXIMITY = "prox"
    PLAUSIBILITY = "plaus"


@dataclass(frozen=True)
class TraceStep:
    """One search iteration: the feature copied, its reward, the resulting signed score."""

    feature: int
    reward: float
    score: float


@dataclass(frozen=True)
class Explanation:
    """Result of one explainer run.

    ``anchor``/``anchor_index`` identify the training row the search moved
    toward (None for explainers without a row anchor, and when no such row
    exists). ``changed_features`` holds exactly the positions where the
    counterfactual differs from the source. ``valid`` is True when the
    predicted class actually flipped; every explainer reports a failed
    attempt as ``valid=False``, never by raising.
    """

    explainer_id: str
    source: Instance
    counterfactual: Instance
    valid: bool
    changed_features: frozenset[int]
    trace: tuple[TraceStep, ...]
    elapsed_ms: float
    anchor: Instance | None = None
    anchor_index: int | None = None

    @property
    def sparsity(self) -> int:
        return len(self.changed_features)


class SearchContext:
    """Shared read-only state for a batch of explanations.

    Bundles the training data, fitted statistics, the model handle, feature
    cost weights and an optional plausibility scorer; ``stats`` is kept as
    an encoding plan, whose row rule the distance scans reuse. Statistics
    that do not describe ``train`` raise :class:`DistanceError`. The
    mean/mode instance is computed up front; the model-dependent state
    (training-set predictions, the case base of near-duplicate cross-class
    pairs) is computed lazily under a lock, so one context can serve many
    threads. Each thread also keeps, unshared, the record of the last source
    it explained.
    """

    def __init__(
        self,
        train: Dataset,
        stats: Sequence[FeatureStats],
        model: ClassifierHandle,
        weights: Sequence[float] | None = None,
        scorer: PlausibilityScorer | None = None,
    ):
        self.train = train
        self.stats: tuple[FeatureStats, ...] = _plan(stats)
        self.stats._check_dataset(train)
        self.model = model
        self.weights = check_weights(stats, weights)
        self.scorer = scorer
        self._mean_mode: Instance = tuple(
            s.mean if s.kind is FeatureKind.NUMERICAL else s.mode for s in self.stats
        )
        self._lock = threading.Lock()
        self._train_predictions: np.ndarray | None = None
        self._case_base: np.ndarray | None = None
        self._last_source = threading.local()

    def train_predictions(self) -> np.ndarray:
        """Model predictions for every training row, cached after first use."""
        with self._lock:
            if self._train_predictions is None:
                self._train_predictions = self.model.predict_batch(self.train.rows)
            return self._train_predictions

    def mean_mode_instance(self) -> Instance:
        """The instance holding each feature's training mean (numeric) or mode."""
        return self._mean_mode

    def case_base(self) -> np.ndarray:
        """Pairs of training rows predicted as different classes differing in <= 2 features.

        An integer array of shape (pairs, 2) whose column c holds the row
        index of the member predicted as class c. Rows are ordered by the
        pair's lower row index, then its higher one. Building the base
        compares the two predicted-class groups feature by feature, so cost
        is one |group0| x |group1| matrix per feature.
        """
        preds = self.train_predictions()
        with self._lock:
            if self._case_base is None:
                self._case_base = _build_case_base(self.train, self.stats, preds)
            return self._case_base

    def warm(self, include_case_base: bool = False) -> None:
        """Populate the lazy caches up front (before handing the context to threads)."""
        self.train_predictions()
        if include_case_base:
            self.case_base()


def _build_case_base(
    train: Dataset, stats: Sequence[FeatureStats], preds: np.ndarray
) -> np.ndarray:
    idx0 = np.flatnonzero(preds == 0)
    idx1 = np.flatnonzero(preds == 1)
    counts = np.zeros((len(idx0), len(idx1)), dtype=np.int16)
    cols = train.columns()
    for j, stat in enumerate(stats):
        col = cols[j][0] if stat.kind is FeatureKind.CATEGORICAL else cols[j]
        counts += col[idx0][:, None] != col[idx1][None, :]
    i0, i1 = np.nonzero((counts >= 1) & (counts <= 2))
    base = np.column_stack((idx0[i0], idx1[i1]))
    return base[np.lexsort((base.max(axis=1), base.min(axis=1)))]


# Floor of the proximity reward's denominator: a step between two distinct
# numbers can underflow to a zero distance (a tiny change over a huge range),
# and the reward must stay finite.
_EPSILON = 1e-9


def _signed(p: float) -> float:
    return 2.0 * p - 1.0


def _reward(
    kind: RewardKind,
    y_hat: int,
    p_prev: float,
    p_cand: float,
    cost: float | None,
    ae_prev: float | None,
    ae_cand: float | None,
) -> float:
    # Single source of truth for the reward arithmetic: both the public
    # reward() and the search loop call this with identically computed parts,
    # so an independent recomputation reproduces search decisions bit for bit.
    # ``cost`` is the step's weighted distance, read by the proximity reward only.
    delta = y_hat * (_signed(p_prev) - _signed(p_cand))
    if kind is RewardKind.SPARSITY:
        return delta
    if kind is RewardKind.PROXIMITY:
        return delta / max(cost, _EPSILON)
    if kind is RewardKind.PLAUSIBILITY:
        return delta * (ae_prev - ae_cand)
    raise ConfigError("reward is undefined for kind 'none'")


def reward(
    kind: RewardKind,
    prev: Instance,
    cand: Instance,
    ctx: SearchContext,
    y_hat: int,
) -> float:
    """Reward of moving from ``prev`` to ``cand`` (which must differ in one feature).

    ``prev`` is assumed to still hold the source's value at the changed
    position, which is always true inside the search (a feature is copied at
    most once); the proximity denominator relies on it.
    """
    if y_hat not in (-1, 1):
        raise ConfigError(f"y_hat must be +1 or -1, got {y_hat}")
    diffs = [j for j in range(len(prev)) if prev[j] != cand[j]]
    if len(diffs) != 1:
        raise ConfigError(f"candidate differs from prev in {len(diffs)} features, expected 1")
    j = diffs[0]
    if kind is RewardKind.PLAUSIBILITY:
        if ctx.scorer is None:
            raise ConfigError("plausibility reward requires a scorer on the context")
        ae_prev, ae_cand = ctx.scorer(prev), ctx.scorer(cand)
    else:
        ae_prev = ae_cand = None
    p_prev, p_cand = ctx.model.score(prev), ctx.model.score(cand)
    cost = ctx.weights[j] * heom_feature(ctx.stats[j], prev[j], cand[j])
    return _reward(kind, y_hat, p_prev, p_cand, cost, ae_prev, ae_cand)


class _Source:
    """What every explainer needs of one source, worked out once.

    ``x0`` passed the row rule; ``p0`` and ``c0`` are its score and class
    under ``model``, and ``score_s`` the seconds that score took.
    :meth:`nun` scans for its nearest unlike neighbour under ``weights`` on
    first use; ``nun_s`` is the seconds that scan took, None before it.
    An explainer that reuses the record adds these times to its own, so each
    reports its full cost whichever explainer ran first.
    """

    __slots__ = ("x0", "model", "weights", "p0", "c0", "score_s", "nun_s", "_nun")

    def __init__(self, x0: Instance, model: ClassifierHandle, weights: Sequence[float]):
        self.x0, self.model, self.weights = x0, model, weights
        t0 = time.perf_counter()
        self.p0 = model.score(x0)
        self.score_s = time.perf_counter() - t0
        self.c0 = _predicted(self.p0)
        self.nun_s: float | None = None

    def nun(self, ctx: SearchContext) -> int | None:
        """The nearest unlike neighbour's index, scanned for on first use; None when no row qualifies."""
        if self.nun_s is None:
            preds = ctx.train_predictions()  # once per context, so not charged to the source
            t0 = time.perf_counter()
            try:
                self._nun = nearest_unlike_neighbor(
                    ctx.stats, self.x0, ctx.train, preds, self.c0, self.weights)
            except NoUnlikeNeighborError:
                self._nun = None
            self.nun_s = time.perf_counter() - t0
        return self._nun


def _classify(x0: Instance, ctx: SearchContext) -> tuple[float, _Source]:
    """The start of every explainer: check ``x0``, start the clock, score ``x0`` once.

    The thread's last record is reused when it was made for this very
    ``x0``, a tuple, under the context's current model and weights; only a
    tuple cannot have changed since. The clock then starts the record's
    ``score_s`` back. Otherwise raises :class:`EncodeError` when ``x0``
    breaks the row rule, and makes the thread's new record. Returns (start
    time, record).
    """
    last = getattr(ctx._last_source, "record", None)
    if (last is not None and last.x0 is x0 and type(x0) is tuple
            and last.model is ctx.model and last.weights is ctx.weights):
        return time.perf_counter() - last.score_s, last
    ctx.train.rule.check(x0)
    t0 = time.perf_counter()
    record = ctx._last_source.record = _Source(x0, ctx.model, ctx.weights)
    return t0, record


def _explanation(
    explainer_id: str,
    x0: Instance,
    counterfactual: Instance,
    valid: bool,
    t0: float,
    trace: tuple[TraceStep, ...] = (),
    anchor: Instance | None = None,
    anchor_index: int | None = None,
) -> Explanation:
    """Build an explanation, deriving the changed features and the time since ``t0``."""
    return Explanation(
        explainer_id=explainer_id,
        source=tuple(x0),
        counterfactual=counterfactual,
        valid=valid,
        changed_features=frozenset(
            j for j in range(len(x0)) if counterfactual[j] != x0[j]
        ),
        trace=trace,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        anchor=anchor,
        anchor_index=anchor_index,
    )


def _greedy_toward(
    x0: Instance,
    p0: float,
    target: Instance,
    kind: RewardKind,
    ctx: SearchContext,
) -> tuple[Instance, tuple[TraceStep, ...], bool]:
    """Copy ``target`` values into ``x0`` one feature per iteration until the class flips.

    ``p0`` is the model's score of ``x0``. The search keeps one swap state
    of the model (and one of the scorer for the plausibility reward) from
    ``x0`` toward ``target``, and the ascending list of features still
    differing from the target, whose proximity costs it computes once. Each
    iteration scores one candidate per listed feature, in one ``scores``
    call to each state, keeps the reward argmax (a NaN reward ranks below
    every number; ties go to the smallest feature index), ``take``s it and
    drops it from the list, until the class flips or the list is empty.
    Returns (counterfactual, trace, valid): ``x0`` with the traced features
    taken from ``target``, the steps, and whether the class flipped.
    """
    c0 = _predicted(p0)
    y_hat = 1 if c0 == 1 else -1
    remaining = [j for j in range(len(x0)) if x0[j] != target[j]]
    # A feature is copied at most once, so its step always runs from x0[j] to target[j].
    costs = {j: ctx.weights[j] * heom_feature(ctx.stats[j], x0[j], target[j])
             for j in remaining} if kind is RewardKind.PROXIMITY else {}
    p_prev = p0
    model_state = ctx.model.swap_state(x0, target)
    ae_prev = scorer_state = None
    if kind is RewardKind.PLAUSIBILITY:
        ae_prev = ctx.scorer(x0)
        scorer_state = swap_state(ctx.scorer, x0, target)
    steps: list[TraceStep] = []
    flipped = False
    while remaining and not flipped:
        p_cands = model_state.scores(remaining)
        ae_cands = [None] * len(remaining) if scorer_state is None else scorer_state.scores(remaining)
        best = best_reward = None
        for i, j in enumerate(remaining):
            r = _reward(kind, y_hat, p_prev, float(p_cands[i]), costs.get(j), ae_prev, ae_cands[i])
            # A NaN reward (inf - inf in the plausibility product) ranks below every
            # number; x != x holds for NaN only.
            if best is None or r > best_reward or (best_reward != best_reward and r == r):
                best, best_reward = i, r
        chosen_j = remaining.pop(best)
        p_prev, ae_prev = float(p_cands[best]), ae_cands[best]
        model_state.take(chosen_j)
        if scorer_state is not None:
            scorer_state.take(chosen_j)
        steps.append(TraceStep(chosen_j, best_reward, _signed(p_prev)))
        flipped = _predicted(p_prev) != c0
    taken = {step.feature for step in steps}
    return tuple(target[j] if j in taken else v for j, v in enumerate(x0)), tuple(steps), flipped


def explain_nice(x0: Instance, kind: RewardKind, ctx: SearchContext) -> Explanation:
    """Hybrid search from ``x0`` toward its nearest unlike neighbor.

    With kind none the anchor is returned as-is; otherwise the greedy search
    copies anchor values with the given reward. Termination with a flip is
    guaranteed because the last remaining candidate is the anchor itself.
    When no unlike neighbor exists, the result is the source unchanged with
    ``valid=False`` and no anchor.
    """
    if kind is RewardKind.PLAUSIBILITY and ctx.scorer is None:
        raise ConfigError("plausibility search requires a scorer on the context")
    t0, source = _classify(x0, ctx)
    if source.nun_s is not None:
        t0 -= source.nun_s  # the scan an earlier explainer made counts in this one's time too
    nn_index = source.nun(ctx)
    if nn_index is None:
        return _explanation(f"nice-{kind.value}", x0, tuple(x0), False, t0)
    x_nn = ctx.train.rows[nn_index]
    if kind is RewardKind.NONE:
        counterfactual, trace, valid = x_nn, (), True
    else:
        counterfactual, trace, valid = _greedy_toward(x0, source.p0, x_nn, kind, ctx)
    return _explanation(
        f"nice-{kind.value}", x0, counterfactual, valid, t0, trace, x_nn, nn_index
    )


def _wit_distances(ctx: SearchContext, x0: Instance) -> np.ndarray:
    """Distances used by the nearest-neighbor baseline: HEOM with per-std numeric scaling."""
    return _weighted_scan(ctx.stats, [s.std for s in ctx.stats], [x0], ctx.train, ctx.weights)[0]


def explain_wit(x0: Instance, ctx: SearchContext) -> Explanation:
    """Return the nearest training row predicted as the other class.

    No correctness filter: a misclassified training row qualifies. The
    nearest is the first such row in :func:`k_smallest` order. When no row
    qualifies, the result is the source unchanged with ``valid=False``.
    """
    t0, source = _classify(x0, ctx)
    rows = np.flatnonzero(ctx.train_predictions() != source.c0)
    if len(rows) == 0:
        return _explanation("wit", x0, tuple(x0), False, t0)
    index = int(rows[k_smallest(_wit_distances(ctx, x0)[rows], 1)[0]])
    counterfactual = ctx.train.rows[index]
    return _explanation("wit", x0, counterfactual, True, t0, (), counterfactual, index)


def explain_sedc(x0: Instance, ctx: SearchContext) -> Explanation:
    """Greedy sparsity-reward search toward the training mean/mode instance.

    The same search as the sparsity-reward hybrid, but values are copied
    from the all-mean/mode instance instead of a training row, so there is
    no flip guarantee: when every feature has been replaced without a class
    change, the result has ``valid=False``.
    Consequence: whenever the all-mean/mode instance is predicted as class
    c, every instance predicted as the other class is explained successfully,
    because the search terminates at that instance in the worst case.
    """
    t0, source = _classify(x0, ctx)
    counterfactual, trace, valid = _greedy_toward(
        x0, source.p0, ctx.mean_mode_instance(), RewardKind.SPARSITY, ctx
    )
    return _explanation("sedc", x0, counterfactual, valid, t0, trace)


def explain_cbr(x0: Instance, ctx: SearchContext) -> Explanation:
    """Reuse a near-duplicate cross-class training pair as the explanation.

    Among all training pairs predicted as different classes and differing in
    at most two features, pick the one whose member sharing the source's
    predicted class is nearest to the source, then copy the pair's differing
    values from the opposite member into the source. The pair is the first
    in :func:`k_smallest` order of those members' distances, so ties go to
    the first pair in case-base order. An empty case base, or a copy that
    fails to flip the class, yields ``valid=False``.
    """
    t0, source = _classify(x0, ctx)
    c0 = source.c0
    base = ctx.case_base()
    if len(base) == 0:
        return _explanation("cbr", x0, tuple(x0), False, t0)
    d = heom_to_rows(ctx.stats, x0, ctx.train, ctx.weights)
    pair = base[k_smallest(d[base[:, c0]], 1)[0]]
    same_row, other_row = ctx.train.rows[pair[c0]], ctx.train.rows[pair[1 - c0]]
    counterfactual = tuple(
        o if s != o else v for v, s, o in zip(x0, same_row, other_row)
    )
    valid = ctx.model.predict(counterfactual) != c0
    return _explanation("cbr", x0, counterfactual, valid, t0)


def explanation_to_dict(expl: Explanation, feature_names: Sequence[str], metrics: dict) -> dict:
    """JSON-ready representation of an explanation.

    Changed features are reported with their names and old/new values;
    ``metrics`` (already a plain dict) is attached verbatim.
    """
    doc = {
        "explainer": expl.explainer_id,
        "valid": expl.valid,
        "elapsed_ms": expl.elapsed_ms,
        "source": list(expl.source),
        "counterfactual": list(expl.counterfactual),
        "changes": [
            {
                "feature": feature_names[j],
                "index": j,
                "old": expl.source[j],
                "new": expl.counterfactual[j],
            }
            for j in sorted(expl.changed_features)
        ],
        "trace": [
            {
                "feature": feature_names[s.feature],
                "index": s.feature,
                "reward": s.reward,
                "score": s.score,
            }
            for s in expl.trace
        ],
    }
    if expl.anchor_index is not None:
        doc["anchor_index"] = expl.anchor_index
    doc["metrics"] = metrics
    return doc

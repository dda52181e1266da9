"""Pieces shared by the benchmark's workloads: explainer table, checks, results."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nicecf import RewardKind, explain_cbr, explain_nice, explain_sedc, explain_wit

BENCH_DIR = Path(__file__).resolve().parent

EXPLAINERS = {
    "nice-none": lambda x0, ctx: explain_nice(x0, RewardKind.NONE, ctx),
    "nice-spars": lambda x0, ctx: explain_nice(x0, RewardKind.SPARSITY, ctx),
    "nice-prox": lambda x0, ctx: explain_nice(x0, RewardKind.PROXIMITY, ctx),
    "nice-plaus": lambda x0, ctx: explain_nice(x0, RewardKind.PLAUSIBILITY, ctx),
    "wit": explain_wit,
    "sedc": explain_sedc,
    "cbr": explain_cbr,
}
# Explainers that always return a valid counterfactual copied from a training row.
ANCHORED = ("nice-none", "nice-spars", "nice-prox", "nice-plaus", "wit")


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def explanation_problems(eid: str, x0, expl, replacement=None) -> list[str]:
    """Structural checks on one explanation; an empty list means it passed.

    Anchored explainers must be valid and every changed value must equal the
    anchor's (hybridity); sedc's changed values must equal ``replacement``,
    the mean/mode instance.
    """
    problems = []
    cf = expl.counterfactual
    changed = frozenset(j for j in range(len(x0)) if cf[j] != x0[j])
    if expl.changed_features != changed or tuple(expl.source) != tuple(x0):
        problems.append("changed_features or source disagree with the values")
    target = expl.anchor if eid in ANCHORED else replacement if eid == "sedc" else None
    if eid in ANCHORED and not expl.valid:
        problems.append("not valid")
    if target is not None and any(cf[j] != target[j] for j in changed):
        problems.append("a changed value does not come from the anchor")
    return problems


def flip_problem(predict, expl) -> str | None:
    """A valid explanation must really move the model to the other class."""
    if expl.valid and predict(expl.counterfactual) == predict(expl.source):
        return "the model predicts the same class for the counterfactual"
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_digests(result: Result, workload: str, seed: int, digests: dict, covered: int) -> None:
    """Compare artifact digests with ``references.json``; a mismatch fails ``covered``."""
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    expected = refs.get(workload, {}).get(str(seed))
    for name, digest in sorted(digests.items()):
        want = None if expected is None else expected.get(name)
        state = "no reference" if want is None else "ok" if want == digest else "MISMATCH"
        result.notes.append(f"digest {name}: {digest} ({state})")
        if want is not None and want != digest:
            result.fail(covered, f"{name} differs from the reference digest for seed {seed}")


# Reference kernels: fixed slices of work like the package's own that do not
# call the package. "python" encodes a mixed row in a Python loop and takes
# small dot products, like the logistic model and the autoencoder scorer;
# "numpy" runs full-column passes and a sort, like the kNN model. Their
# median times on the 2-vCPU Xeon the benchmark was written on, when quiet:
KERNEL_REF_S = {"python": 0.0003, "numpy": 0.0026}
_RNG = np.random.default_rng(0)
_COLUMN = _RNG.random(5000)
_VECTOR = _RNG.random(36)
_ROW = tuple(float(v) for v in _RNG.random(12)) + tuple("abc"[i % 3] for i in range(8))
_ORDER = np.arange(5000)


def _python_kernel() -> None:
    acc = 0.0
    for _ in range(40):
        v = np.zeros(36)
        pos = 0
        for x in _ROW:
            if isinstance(x, str):
                v[pos + "abc".index(x)] = 1.0
                pos += 3
            else:
                v[pos] = x * 0.5
                pos += 1
        acc += float(np.dot(v, _VECTOR))
    for _ in range(12):
        acc += float((np.abs(_COLUMN - 0.5) / 2.0).sum())


def _numpy_kernel() -> None:
    for _ in range(6):
        d = np.abs(_COLUMN - 0.5) / 0.7
        d += (_COLUMN > 0.3).astype(np.float64)
        np.lexsort((_ORDER, d))


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def kernel_s(kind: str) -> float:
    """Seconds taken by one run of the reference kernel ``kind``."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


def speed_factor(kernel_samples, kind: str) -> float:
    """How much slower than when quiet the machine ran while the samples were taken.

    The machine is shared and its speed drifts by up to a half over minutes.
    Times divided by this factor, taken from kernel runs interleaved with the
    measured work, are times at the reference speed.
    """
    return statistics.median(kernel_samples) / KERNEL_REF_S[kind]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def iteration_counts(expl, target) -> tuple[int, int]:
    """(greedy iterations, candidates built) of one search result.

    Each iteration builds one candidate per feature where the current point
    still differs from ``target`` (the anchor, or sedc's mean/mode instance),
    and every iteration fixes one of them.
    """
    iters = len(expl.trace)
    if iters == 0 or target is None:
        return iters, 0
    start = sum(1 for a, b in zip(expl.source, target) if a != b)
    return iters, sum(start - t for t in range(iters))

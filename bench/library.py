"""In-process workloads over the acceptance check [10] data: logistic-5k, knn5-5k.

Both use ``make_dataset(6000, 12, 8, seed=606, noise=0.02)``: rows 0-4999
train, rows 5000-5999 are the query pool. The run's seed draws the run's
batch of queries from the pool; the data set itself stays that of check
[10], so the figures stay comparable with it.

Each run is a closed loop with one client: one query at a time runs every
explainer of the workload, each followed by ``compute_metrics``. The batch
is explained round after round for the measured time; every round must give
the same results as the first.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from common import (
    EXPLAINERS,
    Result,
    check_digests,
    explanation_problems,
    flip_problem,
    iteration_counts,
    kernel_s,
    percentile,
    sha256,
    speed_factor,
)
from tracing import (
    TracedHandle,
    Tracer,
    instrument_library,
    layer_metrics,
    ratio,
    traced_scorer,
)

from nicecf import (
    AEConfig,
    Dataset,
    SearchContext,
    ae_scorer,
    compute_metrics,
    fit_stats,
    make_dataset,
    render_report,
    summarize_records,
    train_autoencoder,
    train_knn_classifier,
    train_logistic,
    write_records_csv,
)

N_TRAIN = 5000
KERNEL_RUNS_PER_STEP = 20
MIN_ROUNDS = 2


class Workload(NamedTuple):
    fit_model: Callable
    explainers: tuple[str, ...]
    batch: int  # queries per round
    flip_queries: int  # queries whose explanations get the model re-asked for the flip
    kernel: str  # reference kernel that tracks the machine's speed for this work
    setups: int  # set-ups per run; setup_s is their median


# Larger batches depend less on which rows the seed drew; kNN scoring costs a
# full 5000-row scan per row, so knn5-5k runs and re-checks fewer queries.
# knn5-5k spends about 95% of its time in numpy scans and sorts, which the
# machine's drift slows like the numpy kernel and far less than the Python one.
WORKLOADS = {
    "logistic-5k": Workload(lambda stats, train: train_logistic(stats, train),
                            tuple(EXPLAINERS), 200, 200, "python", 5),
    "knn5-5k": Workload(lambda stats, train: train_knn_classifier(stats, train, k=5),
                        ("nice-none", "nice-spars", "nice-prox", "wit"), 40, 20, "numpy", 3),
}


def make_inputs(seed: int, batch: int):
    """Training set and the run's batch of queries, drawn from the 1000 query rows by ``seed``."""
    data = make_dataset(6000, 12, 8, seed=606, noise=0.02)
    train = Dataset(data.schema, data.rows[:N_TRAIN], labels=list(data.labels[:N_TRAIN]))
    order = list(range(N_TRAIN, len(data)))
    random.Random(seed).shuffle(order)
    return train, [data.rows[i] for i in order[:batch]]


def set_up(train: Dataset, fit_model, kernel_kind: str) -> tuple[SearchContext, dict]:
    """From the in-memory data set to a warmed context; seconds per step, and in all.

    The reference kernel runs before and after every step, outside the
    timing; the step times are at the reference speed.
    """
    times: dict = {}
    kernel: list[float] = []

    def step(key, fn):
        kernel.extend(kernel_s(kernel_kind) for _ in range(KERNEL_RUNS_PER_STEP))
        t0 = time.perf_counter()
        value = fn()
        times[key] = time.perf_counter() - t0
        return value

    stats = step("stats", lambda: fit_stats(train))
    model = step("model", lambda: fit_model(stats, train))
    ae = step("ae", lambda: train_autoencoder(train, AEConfig(seed=0), stats))
    ctx = step("context", lambda: SearchContext(train, stats, model, scorer=ae_scorer(ae, stats)))
    step("warm", ctx.train_predictions)
    step("case_base", lambda: ctx.warm(include_case_base=True))
    kernel.extend(kernel_s(kernel_kind) for _ in range(KERNEL_RUNS_PER_STEP))
    factor = speed_factor(kernel, kernel_kind)
    times = {key: value / factor for key, value in times.items()}
    times["total"] = sum(times.values())
    return ctx, times


class Rounds:
    """Timings and results of repeated passes ("rounds") over one batch of queries.

    Raw timings are kept per round; ``factors`` holds each round's speed factor
    from the reference kernel run after every query, and ``per_query`` turns
    them into one time per query at the reference speed.
    """

    def __init__(self):
        self.query_s: list[list[float]] = []  # [round][query]
        self.expl_s: dict[str, list[list[float]]] = defaultdict(list)  # id -> [round][query]
        self.metrics_s: list[float] = []  # per round
        self.factors: list[float] = []  # per round
        self.first: list[tuple[int, str, tuple, object]] = []  # round 0: (query, id, x0, expl)
        self.records = []  # round 0's metric records
        self.attempted = 0
        self.problems: list[str] = []
        self.fixed: Tracer | None = None  # tracer snapshot after round 0

    def per_query(self, per_round) -> np.ndarray:
        """Each query's median time over the rounds, at the reference speed."""
        scaled = np.asarray(per_round, dtype=np.float64) / np.asarray(self.factors)[:, None]
        return np.median(scaled, axis=0)


def run_rounds(ctx, eids, batch, kernel_kind, seconds, min_rounds, max_rounds=None,
               tracer=None) -> Rounds:
    """Explain ``batch`` round after round while another round fits in ``seconds``."""
    rounds = Rounds()
    fns = [(eid, EXPLAINERS[eid], f"explainers.{eid}") for eid in eids]
    clock = time.perf_counter
    start = clock()
    reference = None
    while len(rounds.query_s) < min_rounds or (
        (clock() - start) * (len(rounds.query_s) + 1) / len(rounds.query_s) <= seconds
        and (max_rounds is None or len(rounds.query_s) < max_rounds)
    ):
        r = len(rounds.query_s)
        query_s, expl_s, metrics_s, outcome, kernel = [], defaultdict(list), 0.0, [], []
        for q, x0 in enumerate(batch):
            tq = clock()
            for eid, fn, span in fns:
                rounds.attempted += 1
                try:
                    t0 = clock()
                    if tracer is None:
                        expl = fn(x0, ctx)
                        t1 = clock()
                        rec = compute_metrics(expl, ctx, q)
                    else:
                        with tracer.span(span):
                            expl = fn(x0, ctx)
                        t1 = clock()
                        with tracer.span("evaluation.metrics"):
                            rec = compute_metrics(expl, ctx, q)
                    t2 = clock()
                except Exception as exc:  # a raising explainer is a failed explanation
                    rounds.problems.append(f"{eid} on query {q}: {exc!r}")
                    expl_s[eid].append(math.nan)
                    continue
                expl_s[eid].append(t1 - t0)
                metrics_s += t2 - t1
                outcome.append((expl.counterfactual, replace(rec, time_ms=0.0)))
                if r == 0:
                    rounds.first.append((q, eid, x0, expl))
                    rounds.records.append(rec)
            query_s.append(clock() - tq)
            kernel.append(kernel_s(kernel_kind))
        rounds.query_s.append(query_s)
        rounds.metrics_s.append(metrics_s)
        rounds.factors.append(speed_factor(kernel, kernel_kind))
        for eid in eids:
            rounds.expl_s[eid].append(expl_s[eid])
        if r == 0:
            reference = outcome
            if tracer is not None:
                rounds.fixed = tracer.snapshot()
        elif outcome != reference:
            rounds.problems.append(f"round {r} gave other results than round 0")
    return rounds


def check_rounds(result: Result, rounds: Rounds, ctx, flip_queries: int) -> None:
    """Structural checks on round 0; later rounds were compared with it as they ran."""
    result.attempted += rounds.attempted
    for problem in rounds.problems:
        result.fail(len(rounds.first) if problem.startswith("round") else 1, problem)
    mean_mode = ctx.mean_mode_instance()
    memo: dict = {}

    def predict(x):
        if x not in memo:
            memo[x] = ctx.model.predict(x)
        return memo[x]

    for q, eid, x0, expl in rounds.first:
        problems = explanation_problems(eid, x0, expl, mean_mode)
        if q < flip_queries:
            problems.append(flip_problem(predict, expl))
        problems = [p for p in problems if p]
        if problems:
            result.fail(1, f"{eid} on query {q}: {'; '.join(problems)}")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    spec = WORKLOADS[workload]
    result = Result()
    train, batch = make_inputs(seed, spec.batch)
    setups = []
    for _ in range(spec.setups):
        ctx, times = set_up(train, spec.fit_model, spec.kernel)
        setups.append(times)

    def setup_median(key: str) -> float:
        return statistics.median(t[key] for t in setups)

    plain = run_rounds(ctx, spec.explainers, batch, spec.kernel,
                       seconds / 2 if trace else seconds, MIN_ROUNDS)
    check_rounds(result, plain, ctx, spec.flip_queries)
    factor = statistics.median(plain.factors)

    # The batch as one whole run: its queries, then the report and the records file.
    t0 = time.perf_counter()
    render_report(summarize_records(plain.records))
    t1 = time.perf_counter()
    write_records_csv(plain.records, work / "records.csv")
    t2 = time.perf_counter()
    check_digests(result, workload, seed, {"records.csv": sha256(work / "records.csv")},
                  len(plain.first))
    n_expl = len(plain.first)
    query_s = plain.per_query(plain.query_s)
    result.notes.append(
        f"{len(plain.query_s)} rounds of {len(batch)} queries ({n_expl} explanations), "
        f"raw round s {[round(sum(q), 3) for q in plain.query_s]}, "
        f"speed factors {[round(f, 3) for f in plain.factors]}; "
        f"setup s {[round(t['total'], 3) for t in setups]}"
    )
    if not trace:
        spars_s = plain.per_query(plain.expl_s["nice-spars"])
        result.metrics = {
            "setup_s": setup_median("total"),
            "explanations_per_s": n_expl / query_s.sum(),
            "query_ms_p50": percentile(query_s, 50) * 1e3,
            "query_ms_p90": percentile(query_s, 90) * 1e3,
            "spars_ms_p50": percentile(spars_s, 50) * 1e3,
            "spars_ms_p90": percentile(spars_s, 90) * 1e3,
            "run_s": query_s.sum() + (t2 - t0) / factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    # Traced rounds over the same batch, with the context's model and scorer wrapped.
    tracer = Tracer()
    model, scorer = ctx.model, ctx.scorer
    ctx.model, ctx.scorer = TracedHandle(model, tracer), traced_scorer(scorer, tracer)
    try:
        with instrument_library(tracer):
            n = len(plain.query_s)
            traced = run_rounds(ctx, spec.explainers, batch, spec.kernel, 0.0, n, n, tracer)
    finally:
        ctx.model, ctx.scorer = model, scorer
    check_rounds(result, traced, ctx, 0)
    result.notes.extend(tracer.table())

    iters = cands = 0
    for _, eid, _, expl in plain.first:
        i, c = iteration_counts(expl, ctx.mean_mode_instance() if eid == "sedc" else expl.anchor)
        iters += i
        cands += c
    metrics = layer_metrics(tracer, traced.fixed, n_expl, statistics.median(traced.factors))
    metrics.update({
        "model.warm_s": setup_median("warm"),
        "plausibility.train_s": setup_median("ae"),
        "explainers.iterations_per_expl": iters / n_expl,
        "explainers.candidates_per_iteration": ratio(cands, iters),
        "explainers.case_base_pairs": len(ctx.case_base()),
        "explainers.case_base_s": setup_median("case_base"),
        "evaluation.metrics_ms_per_expl": float(np.median(
            np.asarray(plain.metrics_s) / np.asarray(plain.factors))) / n_expl * 1e3,
        "evaluation.summarize_s": (t1 - t0) / factor,
        "evaluation.write_s": (t2 - t1) / factor,
        "trace.overhead_frac": traced.per_query(traced.query_s).sum() / query_s.sum() - 1.0,
    })
    for eid in spec.explainers:
        metrics[f"explainers.{eid}_ms_p50"] = percentile(plain.per_query(plain.expl_s[eid]), 50) * 1e3
    result.metrics = metrics
    return result

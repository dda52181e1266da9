"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around the calls it
makes into the package, around the model handle and scorer it hands to
``SearchContext``, and around module-level names the package looks up at call
time, which are rebound for the traced phase and restored afterwards. Nothing
in ``src/`` changes.

Spans are aggregated as they close rather than stored one by one: per
(name, parent name) pair the tracer keeps the count, the total duration and
the self time (duration minus the time covered by child spans). Durations
of the few spans whose medians are reported are kept in full.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import nicecf.cli
import nicecf.distance
import nicecf.evaluation
import nicecf.explainers
import nicecf.model
import nicecf.plausibility
from nicecf.explainers import SearchContext
from nicecf.model import ClassifierHandle, SubprocessTransport

# Span names whose individual durations are kept for medians.
KEEP_DURATIONS = ("distance.nun", "model.request")


class Tracer:
    """Aggregating span recorder for one thread of execution."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [count, total_s, self_s]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[tuple[str, str | None], int] = {}

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call is recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            entry = self.spans.get((name, parent))
            if entry is None:
                entry = self.spans[(name, parent)] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if name in KEEP_DURATIONS:
                self.durations[name].append(duration)

    def add(self, name: str, n: int) -> None:
        """Add ``n`` to a counter kept per enclosing span."""
        key = (name, self._stack[-1][0] if self._stack else None)
        self.counters[key] = self.counters.get(key, 0) + n

    def count(self, name: str, parent: str | None = None) -> int:
        """Number of closed spans called ``name`` (under ``parent`` when given)."""
        return sum(e[0] for (n, p), e in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(e[1] for (n, p), e in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def counter(self, name: str, parent: str | None = None) -> int:
        return sum(v for (n, p), v in self.counters.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(e[2] for (n, _), e in self.spans.items() if n.startswith(prefix))

    def total_prefix(self, prefix: str) -> float:
        return sum(e[1] for (n, _), e in self.spans.items() if n.startswith(prefix))

    def snapshot(self) -> "Tracer":
        """A copy of the closed spans and counters as they stand now."""
        copy = Tracer()
        copy.spans = {k: list(v) for k, v in self.spans.items()}
        copy.counters = dict(self.counters)
        return copy

    def table(self) -> list[str]:
        """Human-readable span table, heaviest total first."""
        lines = [f"{'span':<28}{'parent':<24}{'count':>9}{'total_s':>11}{'self_s':>11}"]
        for (name, parent), (n, total, own) in sorted(
            self.spans.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(f"{name:<28}{str(parent):<24}{n:>9}{total:>11.4f}{own:>11.4f}")
        return lines


class TracedHandle(ClassifierHandle):
    """Model handle recording a ``model`` span and the rows of every scoring call.

    ``score``, ``predict`` and ``predict_batch`` are inherited and all go
    through ``score_batch``, so every model call is seen exactly once.
    """

    def __init__(self, inner: ClassifierHandle, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def score_batch(self, xs):
        self.tracer.add("model.rows", len(xs))
        with self.tracer.span("model"):
            return self.inner.score_batch(xs)

    def close(self) -> None:
        self.inner.close()


def traced_scorer(scorer, tracer: Tracer):
    return tracer.wrap("plausibility.score", scorer)


class Rebinder:
    """Sets attributes and puts the original values back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, tracer: Tracer, span: str) -> None:
        self.set(owner, name, tracer.wrap(span, getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def traced_warm(ctx: SearchContext, include_case_base: bool, tracer: Tracer, warm) -> None:
    """``warm`` (the original ``SearchContext.warm``) with its model and case-base
    parts as the spans ``setup.warm`` and ``setup.case_base``."""
    with tracer.span("setup.warm"):
        ctx.train_predictions()
    if include_case_base:
        with tracer.span("setup.case_base"):
            ctx.case_base()
    warm(ctx, include_case_base)


@contextmanager
def instrument_library(tracer: Tracer):
    """Rebind the package's module-level lookups to traced wrappers.

    Covers encoding inside the built-in models and the autoencoder scorer,
    the nearest-unlike-neighbor search and every full-table distance scan.
    """
    r = Rebinder()
    try:
        r.wrap(nicecf.model, "encode", tracer, "tabular.encode")
        r.wrap(nicecf.plausibility, "encode", tracer, "tabular.encode")
        r.wrap(nicecf.explainers, "nearest_unlike_neighbor", tracer, "distance.nun")
        for module in (nicecf.distance, nicecf.model, nicecf.explainers, nicecf.evaluation):
            r.wrap(module, "heom_to_rows", tracer, "distance.scan")
        # The wit baseline's own per-std scan is the same kind of full-table pass.
        r.wrap(nicecf.explainers, "_wit_distances", tracer, "distance.scan")
        yield r
    finally:
        r.restore()


@contextmanager
def instrument_cli(tracer: Tracer, on_handle):
    """Everything in :func:`instrument_library`, plus the CLI's own lookups.

    ``on_handle`` receives every external model handle the CLI builds, so the
    caller can close it; the handle the CLI then uses is traced.
    """
    cli = nicecf.cli
    with instrument_library(tracer) as r:
        build = cli.external_model

        def external_model(spec, *args, **kwargs):
            handle = build(spec, *args, **kwargs)
            on_handle(handle)
            return TracedHandle(handle, tracer)

        r.set(cli, "external_model", external_model)
        make_scorer = cli.ae_scorer
        r.set(cli, "ae_scorer", lambda ae, stats: traced_scorer(make_scorer(ae, stats), tracer))
        explain_nice = cli.explain_nice

        def traced_nice(x0, kind, ctx):
            with tracer.span(f"explainers.nice-{kind.value}"):
                return explain_nice(x0, kind, ctx)

        r.set(cli, "explain_nice", traced_nice)
        for name, span in (("explain_wit", "explainers.wit"), ("explain_sedc", "explainers.sedc"),
                           ("explain_cbr", "explainers.cbr"),
                           ("compute_metrics", "evaluation.metrics"),
                           ("summarize_records", "evaluation.summarize"),
                           ("render_report", "evaluation.summarize"),
                           ("write_records_csv", "evaluation.write"),
                           ("write_timings_csv", "evaluation.write"),
                           ("load_dataset", "tabular.load"),
                           ("split", "tabular.split"),
                           ("fit_stats", "tabular.fit_stats"),
                           ("train_autoencoder", "plausibility.train")):
            r.wrap(cli, name, tracer, span)
        r.wrap(SubprocessTransport, "request", tracer, "model.request")
        warm = SearchContext.warm
        r.set(SearchContext, "warm", lambda self, include_case_base=False: traced_warm(
            self, include_case_base, tracer, warm))
        yield r


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, fixed: Tracer, n_fixed: int, factor: float) -> dict:
    """Per-layer metrics of the explain phase, derived from spans.

    Counts per explanation come from ``fixed``, a snapshot taken after a fixed
    amount of work of ``n_fixed`` explanations, so they repeat exactly; times
    and shares come from all of ``tracer``, times divided by the speed
    ``factor``. Explain time is the time inside explainer and metrics spans.
    Model calls made while warming the context (under ``setup.warm``) are
    set-up, not explain-phase work.
    """
    explain_s = tracer.total_prefix("explainers.") + tracer.total("evaluation.metrics")
    model_s = tracer.total("model") - tracer.total("model", "setup.warm")
    rows = tracer.counter("model.rows") - tracer.counter("model.rows", "setup.warm")
    fixed_calls = fixed.count("model") - fixed.count("model", "setup.warm")
    fixed_rows = fixed.counter("model.rows") - fixed.counter("model.rows", "setup.warm")
    scorer_s = tracer.total("plausibility.score")
    scan_s = tracer.total("distance.scan")
    return {
        "tabular.encode_calls_per_expl": ratio(fixed.count("tabular.encode"), n_fixed),
        "tabular.encode_share": ratio(tracer.total("tabular.encode", "model"), model_s),
        "distance.nun_ms_p50": p50(tracer.durations["distance.nun"]) * 1e3 / factor,
        "distance.nun_share": ratio(tracer.total("distance.nun"), explain_s),
        "distance.scan_calls_per_expl": ratio(fixed.count("distance.scan"), n_fixed),
        "distance.scan_us_per_call": ratio(scan_s, tracer.count("distance.scan")) * 1e6 / factor,
        "distance.knn_scan_share": ratio(tracer.total("distance.scan", "model"), model_s),
        "model.calls_per_expl": ratio(fixed_calls, n_fixed),
        "model.rows_per_expl": ratio(fixed_rows, n_fixed),
        "model.rows_per_call": ratio(fixed_rows, fixed_calls),
        "model.us_per_row": ratio(model_s, rows) * 1e6 / factor,
        "model.share": ratio(model_s, explain_s),
        "plausibility.calls_per_expl": ratio(fixed.count("plausibility.score"), n_fixed),
        "plausibility.us_per_call": ratio(scorer_s, tracer.count("plausibility.score")) * 1e6 / factor,
        "plausibility.share": ratio(scorer_s, explain_s),
        "explainers.self_share": ratio(tracer.self_time("explainers."),
                                       tracer.total_prefix("explainers.")),
    }

"""Command-line entry point for training, explaining, and benchmarking.

Subcommands: ``describe`` (dataset statistics), ``explain`` (one instance
or a capped batch, JSON output), ``benchmark`` (split, train, run a set of
explainers, emit the report files), ``robustness`` (fraction of
counterfactuals that survive a second model).

Exit codes: 0 success, 1 usage or input error, 2 runtime failure. The
``NICE_LOG`` environment variable sets the logging level. All randomness
flows from ``--seed``, so identical invocations produce identical artifacts;
the only exception is wall-clock data, which is confined to the timing
sidecar file.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path
from typing import Callable, Sequence

from .distance import check_weights
from .errors import (
    ConfigError, DistanceError, EncodeError, EngineError, IngestError, StatsError, TrainError,
)
from .evaluation import (
    REPORT_METRICS,
    compute_metrics,
    cross_model_robustness,
    render_report,
    summarize_records,
    write_records_csv,
    write_timings_csv,
)
from .explainers import (
    Explanation,
    RewardKind,
    SearchContext,
    explain_cbr,
    explain_nice,
    explain_sedc,
    explain_wit,
    explanation_to_dict,
)
from .model import ClassifierHandle, external_model, train_knn_classifier, train_logistic
from .plausibility import AEConfig, ae_scorer, train_autoencoder
from .tabular import (
    Dataset,
    FeatureKind,
    Instance,
    fit_stats,
    load_dataset,
    split,
)

log = logging.getLogger(__name__)

EXPLAINER_IDS = (
    "nice-none", "nice-spars", "nice-prox", "nice-plaus", "wit", "sedc", "cbr",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _configure_logging() -> None:
    level_name = os.environ.get("NICE_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if not isinstance(level, int):
            level = logging.INFO
        logging.basicConfig(level=level)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="nicecf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--schema", required=True, help="schema JSON file")
        p.add_argument("--data", required=True, help="CSV data file")
        p.add_argument(
            "--model",
            action="append",
            required=True,
            help="builtin:logistic | builtin:knn:K | proc:CMD | http:URL",
        )
        p.add_argument("--weights", help="JSON file of per-feature cost weights")
        p.add_argument("--seed", type=int, default=0, help="seed for every stochastic step")

    def batch(p: _Parser) -> None:
        p.add_argument("--max-instances", type=_at_least_one, default=1000)
        p.add_argument("--workers", type=_at_least_one, default=1)

    def split_batch(p: _Parser) -> None:
        p.add_argument(
            "--explainers",
            default=",".join(EXPLAINER_IDS),
            help="comma-separated subset of: " + ",".join(EXPLAINER_IDS),
        )
        p.add_argument("--test-fraction", type=float, default=0.2)
        batch(p)

    p = sub.add_parser("describe", help="print dataset statistics")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("explain", help="explain one instance or a batch")
    common(p)
    p.add_argument(
        "--variant",
        choices=[k.value for k in RewardKind],
        default="spars",
        help="search variant",
    )
    p.add_argument("--index", type=int, help="explain only this 0-based data row")
    batch(p)
    p.add_argument("--out", help="output directory (stdout when omitted)")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("benchmark", help="split, train, run explainers, emit reports")
    common(p)
    split_batch(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("robustness", help="validity of explanations under a second model")
    common(p)
    split_batch(p)
    p.add_argument("--out", help="output directory (stdout when omitted)")
    p.set_defaults(func=_cmd_robustness)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code instead of exiting.

    Data that statistics, encoding or a built-in fit cannot take exits 1, as bad input does.
    """
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, ConfigError, IngestError, StatsError, EncodeError, TrainError,
            DistanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


# --- shared plumbing -------------------------------------------------------


def _labeled(args) -> Dataset:
    data = load_dataset(args.schema, args.data)
    if data.labels is None:
        raise ConfigError(f"{args.command} requires a labeled dataset")
    return data


def _load_weights(args, stats) -> tuple[float, ...] | None:
    if not args.weights:
        return None
    try:
        doc = json.loads(Path(args.weights).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also: over 4300 digits, too deep nesting
        raise ConfigError(f"weights file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("weights file must map feature names to numbers")
    unknown = set(doc) - {s.name for s in stats}
    if unknown:
        raise ConfigError(f"weights for unknown features: {sorted(unknown)}")
    return check_weights(stats, [doc.get(s.name, 1.0) for s in stats])


def _single_model_spec(args) -> str:
    if len(args.model) != 1:
        raise _UsageError("exactly one --model is expected here")
    return args.model[0]


def _build_model(spec: str, stats, train: Dataset) -> ClassifierHandle:
    if spec == "builtin:logistic":
        return train_logistic(stats, train)
    if spec == "builtin:knn" or spec.startswith("builtin:knn:"):
        rest = spec[len("builtin:knn"):]
        try:
            k = int(rest[1:]) if rest else 5
        except ValueError:
            raise ConfigError(f"bad neighbor count in model spec '{spec}'") from None
        return train_knn_classifier(stats, train, k=k)
    return external_model(spec)


def _parse_explainers(text: str) -> list[str]:
    ids = [part.strip() for part in text.split(",") if part.strip()]
    if not ids:
        raise ConfigError("empty explainer list")
    unknown = [e for e in ids if e not in EXPLAINER_IDS]
    if unknown:
        raise ConfigError(f"unknown explainers {unknown}; known: {list(EXPLAINER_IDS)}")
    return list(dict.fromkeys(ids))


def _explainer_fn(eid: str) -> Callable[..., Explanation]:
    if eid.startswith("nice-"):
        kind = RewardKind(eid[len("nice-"):])
        return lambda x0, ctx: explain_nice(x0, kind, ctx)
    if eid == "wit":
        return explain_wit
    if eid == "sedc":
        return explain_sedc
    return explain_cbr


def _ensure_out(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _json_text(payload) -> str:
    """``payload`` as indented standard JSON: every non-finite float is written as null.

    ``json.dumps`` alone writes the tokens ``NaN`` and ``Infinity``, which
    JSON lacks; an infinite proximity is one way to meet them.
    """
    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(payload), indent=2, allow_nan=False)


def _emit(args, name: str, payload) -> None:
    """Print ``payload`` as JSON, or write it to ``--out/name`` when given."""
    text = _json_text(payload)
    if args.out is None:
        print(text)
    else:
        path = _ensure_out(args) / name
        path.write_text(text + "\n")
        print(f"wrote {path}")


# --- subcommands -----------------------------------------------------------


def _cmd_describe(args) -> int:
    data = load_dataset(args.schema, args.data)
    stats = fit_stats(data)
    print(f"rows: {len(data)}, features: {data.n_features}")
    if data.labels is not None:
        ones = int(data.label_array().sum())
        print(f"labels: class 0 = {len(data) - ones}, class 1 = {ones}")
    name_width = max(len(s.name) for s in stats)
    for s in stats:
        if s.kind is FeatureKind.NUMERICAL:
            detail = (f"min={s.min:.6g} max={s.max:.6g} "
                      f"mean={s.mean:.6g} std={s.std:.6g}")
        else:
            detail = f"{len(s.categories)} categories, mode='{s.mode}'"
        print(f"{s.name.ljust(name_width)}  {s.kind.value:<11}  {detail}")
    return 0


def _explain_batch(
    args, data: Dataset, instances: Sequence[tuple[int, Instance]],
    explainer_ids: Sequence[str], spec: str,
) -> tuple[SearchContext, list[tuple[int, Explanation]]]:
    """The one batch path: run every explainer on every ``(instance id, row)`` pair.

    Returns the warmed context over ``data``, its model already closed (``compute_metrics``
    never calls it), and one ``(instance id, explanation)`` pair per attempt,
    instance-major; an attempt that found no counterfactual has ``valid=False``.
    """
    log.info("explaining %d instances with %s", len(instances), explainer_ids)
    stats = fit_stats(data)
    weights = _load_weights(args, stats)
    with closing(_build_model(spec, stats, data)) as model:
        ae = train_autoencoder(data, AEConfig(seed=args.seed), stats)
        ctx = SearchContext(data, stats, model, weights, ae_scorer(ae, stats))
        ctx.warm(include_case_base="cbr" in explainer_ids)
        fns = [_explainer_fn(eid) for eid in explainer_ids]

        def one(instance: tuple[int, Instance]) -> list[tuple[int, Explanation]]:
            iid, x0 = instance
            return [(iid, fn(x0, ctx)) for fn in fns]

        # Inline for one worker: a pool's exit would make Ctrl-C wait out every queued task.
        if args.workers == 1:
            batches = [one(instance) for instance in instances]
        else:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                batches = list(pool.map(one, instances))
    return ctx, [attempt for batch in batches for attempt in batch]


def _test_split(args) -> tuple[Dataset, list[tuple[int, Instance]]]:
    """The training split, and the test split's first rows as ``(index, row)`` pairs."""
    train, test = split(_labeled(args), args.test_fraction, args.seed)
    return train, list(enumerate(test.rows))[: args.max_instances]


def _cmd_explain(args) -> int:
    data = _labeled(args)
    if args.index is None:
        rows = list(enumerate(data.rows))[: args.max_instances]
    elif 0 <= args.index < len(data):
        rows = [(args.index, data.rows[args.index])]
    else:
        raise ConfigError(f"--index {args.index} outside 0..{len(data) - 1}")
    ctx, attempts = _explain_batch(args, data, rows, [f"nice-{args.variant}"],
                                   _single_model_spec(args))
    names = [s.name for s in data.schema]
    docs = []
    for row_index, expl in attempts:
        rec = compute_metrics(expl, ctx, row_index)
        metrics = {m: getattr(rec, m) for m in REPORT_METRICS}
        docs.append({**explanation_to_dict(expl, names, metrics), "row": row_index})
    _emit(args, "explanations.json", docs[0] if args.index is not None else docs)
    return 0


def _cmd_benchmark(args) -> int:
    spec, explainer_ids = _single_model_spec(args), _parse_explainers(args.explainers)
    ctx, attempts = _explain_batch(args, *_test_split(args), explainer_ids, spec)
    records = [compute_metrics(expl, ctx, iid) for iid, expl in attempts]
    out = _ensure_out(args)
    write_records_csv(records, out / "records.csv")
    write_timings_csv(records, out / "timings.csv")
    summary = summarize_records(records)
    (out / "summary.json").write_text(_json_text(summary) + "\n")
    (out / "report.txt").write_text(render_report(summary))
    for name in ("records.csv", "timings.csv", "summary.json", "report.txt"):
        print(f"wrote {out / name}")
    return 0


def _cmd_robustness(args) -> int:
    specs = args.model
    if len(specs) != 2:
        raise _UsageError("robustness needs exactly two --model specs")
    explainer_ids = _parse_explainers(args.explainers)
    ctx, attempts = _explain_batch(args, *_test_split(args), explainer_ids, specs[0])
    fractions: dict[str, float | None] = {}
    with closing(_build_model(specs[1], ctx.stats, ctx.train)) as other:
        for eid in explainer_ids:
            valid = [e for _, e in attempts if e.explainer_id == eid and e.valid]
            fractions[eid] = cross_model_robustness(valid, other) if valid else None
    _emit(args, "robustness.json", {
        "model": specs[0],
        "against": specs[1],
        "instances": len({iid for iid, _ in attempts}),
        "robustness": fractions,
    })
    return 0


if __name__ == "__main__":
    main()

"""Command-line entry point for training, explaining, and benchmarking.

Subcommands: ``describe`` (dataset statistics), ``train-ae`` (persist the
plausibility autoencoder as JSON), ``explain`` (one instance or a capped
batch, JSON output), ``benchmark`` (split, train, run a set of explainers,
emit the report files), ``robustness`` (fraction of counterfactuals that
survive a second model).

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
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .errors import ConfigError, EngineError, IngestError, NoUnlikeNeighborError
from .evaluation import (
    MetricRecord,
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
from .plausibility import AEConfig, ae_scorer, save_ae, train_autoencoder
from .tabular import (
    Dataset,
    FeatureKind,
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

    def common(p: _Parser, model: bool = True) -> None:
        p.add_argument("--schema", required=True, help="schema JSON file")
        p.add_argument("--data", required=True, help="CSV data file")
        if model:
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

    p = sub.add_parser("train-ae", help="fit the plausibility autoencoder and persist it")
    common(p, model=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train_ae)

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
    """Run one subcommand; returns the process exit code instead of exiting."""
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
    except (_UsageError, ConfigError, IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


# --- shared plumbing -------------------------------------------------------


def _load(args) -> Dataset:
    return load_dataset(args.schema, args.data)


def _load_weights(args, stats) -> list[float] | None:
    if not getattr(args, "weights", None):
        return None
    try:
        doc = json.loads(Path(args.weights).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"weights file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("weights file must map feature names to numbers")
    names = {s.name for s in stats}
    unknown = set(doc) - names
    if unknown:
        raise ConfigError(f"weights for unknown features: {sorted(unknown)}")
    bad = {k: v for k, v in doc.items()
           if isinstance(v, bool) or not isinstance(v, (int, float))}
    if bad:
        raise ConfigError(f"weights must be numbers, got {bad}")
    bad = {k: v for k, v in doc.items() if not 0.0 < v < math.inf}
    if bad:
        raise ConfigError(f"weights must be positive and finite, got {bad}")
    return [float(doc.get(s.name, 1.0)) for s in stats]


def _single_model_spec(args) -> str:
    specs = args.model
    if len(specs) != 1:
        raise _UsageError("exactly one --model is expected here")
    return specs[0]


def _build_model(spec: str, stats, train: Dataset) -> ClassifierHandle:
    if spec == "builtin:logistic":
        return train_logistic(stats, train)
    if spec == "builtin:knn" or spec.startswith("builtin:knn:"):
        rest = spec[len("builtin:knn"):]
        if rest == "":
            k = 5
        else:
            try:
                k = int(rest[1:])
            except ValueError:
                raise ConfigError(f"bad neighbor count in model spec '{spec}'") from None
        return train_knn_classifier(stats, train, k=k)
    if spec.startswith(("proc:", "http:")):
        return external_model(spec)
    raise ConfigError(f"unrecognized model spec '{spec}'")


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


def _ensure_out(args) -> Path | None:
    out = getattr(args, "out", None)
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_instances(
    instances: Sequence, explainer_ids: Sequence[str], ctx: SearchContext, workers: int
) -> list[list[tuple[str, Explanation | None, float]]]:
    """Run every explainer on every instance.

    Returns, per instance, a list of (explainer_id, explanation-or-None,
    elapsed_ms) where None marks an attempt that found no unlike neighbor.
    Results are ordered by instance position regardless of worker scheduling.
    """
    fns = [(eid, _explainer_fn(eid)) for eid in explainer_ids]

    def one(x0) -> list[tuple[str, Explanation | None, float]]:
        results = []
        for eid, fn in fns:
            t0 = time.perf_counter()
            try:
                expl = fn(x0, ctx)
                results.append((eid, expl, expl.elapsed_ms))
            except NoUnlikeNeighborError:
                results.append((eid, None, (time.perf_counter() - t0) * 1000.0))
        return results

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, instances))
    return [one(x0) for x0 in instances]


# --- subcommands -----------------------------------------------------------


def _cmd_describe(args) -> int:
    data = _load(args)
    stats = fit_stats(data)
    print(f"rows: {len(data)}, features: {data.n_features}")
    if data.labels is not None:
        ones = sum(data.labels)
        print(f"labels: class 0 = {len(data) - ones}, class 1 = {ones}")
    if not stats:
        return 0
    name_width = max(len(s.name) for s in stats)
    for s in stats:
        if s.kind is FeatureKind.NUMERICAL:
            detail = (f"min={s.min:.6g} max={s.max:.6g} "
                      f"mean={s.mean:.6g} std={s.std:.6g}")
        else:
            detail = f"{len(s.categories)} categories, mode='{s.mode}'"
        print(f"{s.name.ljust(name_width)}  {s.kind.value:<11}  {detail}")
    return 0


def _cmd_train_ae(args) -> int:
    data = _load(args)
    stats = fit_stats(data)
    ae = train_autoencoder(data, AEConfig(seed=args.seed), stats)
    out = _ensure_out(args)
    path = out / "autoencoder.json"
    save_ae(ae, path)
    print(f"wrote {path} (final training loss {ae.loss_history[-1]:.6g})")
    return 0


@contextmanager
def _search_context(args, data: Dataset, spec: str) -> Iterator[SearchContext]:
    """A search context over ``data``; its model is closed when the block exits."""
    stats = fit_stats(data)
    weights = _load_weights(args, stats)
    with closing(_build_model(spec, stats, data)) as model:
        ae = train_autoencoder(data, AEConfig(seed=args.seed), stats)
        yield SearchContext(data, stats, model, weights, ae_scorer(ae, stats))


def _cmd_explain(args) -> int:
    data = _load(args)
    if data.labels is None:
        raise ConfigError("explaining requires a labeled dataset")
    spec = _single_model_spec(args)
    with _search_context(args, data, spec) as ctx:
        kind = RewardKind(args.variant)
        names = [s.name for s in data.schema]
        if args.index is not None:
            if not 0 <= args.index < len(data):
                raise ConfigError(f"--index {args.index} outside 0..{len(data) - 1}")
            rows = [(args.index, data.rows[args.index])]
        else:
            rows = list(enumerate(data.rows))[: args.max_instances]
        ctx.warm()
        results = _run_instances(
            [r for _, r in rows], [f"nice-{kind.value}"], ctx, args.workers
        )
        docs = []
        for (row_index, _), per_instance in zip(rows, results):
            eid, expl, elapsed = per_instance[0]
            if expl is None:
                docs.append(
                    {"explainer": eid, "row": row_index, "valid": False,
                     "error": "no unlike neighbor", "elapsed_ms": elapsed}
                )
                continue
            rec = compute_metrics(expl, ctx, row_index)
            doc = explanation_to_dict(
                expl, names,
                {"sparsity": rec.sparsity, "proximity": rec.proximity,
                 "ae_error": rec.ae_error, "knn5": rec.knn5},
            )
            doc["row"] = row_index
            docs.append(doc)
    payload = docs[0] if args.index is not None else docs
    text = json.dumps(payload, indent=2)
    out = _ensure_out(args)
    if out is None:
        print(text)
    else:
        path = out / "explanations.json"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    return 0


def _benchmark_records(args, spec: str) -> tuple[list[MetricRecord], SearchContext, list]:
    """Explain the test split; the returned context's model is already closed."""
    data = _load(args)
    if data.labels is None:
        raise ConfigError("benchmarking requires a labeled dataset")
    train, test = split(data, args.test_fraction, args.seed)
    with _search_context(args, train, spec) as ctx:
        explainer_ids = _parse_explainers(args.explainers)
        ctx.warm(include_case_base="cbr" in explainer_ids)
        instances = list(test.rows)[: args.max_instances]
        log.info("benchmarking %d instances with %s", len(instances), explainer_ids)
        results = _run_instances(instances, explainer_ids, ctx, args.workers)
        records: list[MetricRecord] = []
        expls: list[tuple[int, str, Explanation | None]] = []
        for iid, per_instance in enumerate(results):
            for eid, expl, elapsed in per_instance:
                expls.append((iid, eid, expl))
                if expl is None:
                    records.append(MetricRecord(iid, eid, False, elapsed))
                else:
                    records.append(compute_metrics(expl, ctx, iid))
    return records, ctx, expls


def _cmd_benchmark(args) -> int:
    spec = _single_model_spec(args)
    records, _, _ = _benchmark_records(args, spec)
    out = _ensure_out(args)
    write_records_csv(records, out / "records.csv")
    write_timings_csv(records, out / "timings.csv")
    summary = summarize_records(records)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "report.txt").write_text(render_report(summary))
    print(f"wrote {out / 'records.csv'}")
    print(f"wrote {out / 'timings.csv'}")
    print(f"wrote {out / 'summary.json'}")
    print(f"wrote {out / 'report.txt'}")
    return 0


def _cmd_robustness(args) -> int:
    specs = args.model
    if len(specs) != 2:
        raise _UsageError("robustness needs exactly two --model specs")
    _, ctx, expls = _benchmark_records(args, specs[0])
    explainer_ids = _parse_explainers(args.explainers)
    fractions: dict[str, float | None] = {}
    with closing(_build_model(specs[1], ctx.stats, ctx.train)) as other:
        for eid in explainer_ids:
            mine = [e for _, other_eid, e in expls if other_eid == eid and e is not None]
            valid = [e for e in mine if e.valid]
            fractions[eid] = cross_model_robustness(mine, other) if valid else None
    payload = {
        "model": specs[0],
        "against": specs[1],
        "instances": len({iid for iid, _, _ in expls}),
        "robustness": fractions,
    }
    text = json.dumps(payload, indent=2)
    out = _ensure_out(args)
    if out is None:
        print(text)
    else:
        path = out / "robustness.json"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    main()

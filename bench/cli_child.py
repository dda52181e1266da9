"""One ``nicecf benchmark`` command of the cli-proc workload, in a process of its own.

The command runs in-process through ``nicecf.cli.run_command`` with a
``proc:`` model served by ``worker.py``. The CLI never closes that model, so
this process closes it after the command returns, which waits for the worker
to exit and write its counts. Prints one JSON line with timings, counts and
check results.

    python3 bench/cli_child.py --schema S --data D --out DIR --seed N \
        --max-instances M --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import resource
import shlex
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import nicecf.cli as cli  # noqa: E402
from common import (  # noqa: E402
    explanation_problems,
    flip_problem,
    iteration_counts,
    kernel_s,
    sha256,
    speed_factor,
)
from tracing import Rebinder, Tracer, instrument_cli, layer_metrics, p50, ratio  # noqa: E402
from worker import score as worker_score  # noqa: E402

ARTIFACTS = ("records.csv", "summary.json", "report.txt")
KERNEL_RUNS_AROUND = 30  # reference kernel runs before and after the command


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("--schema", "--data", "--out"):
        parser.add_argument(name, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-instances", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = Path(args.out)
    counts_file = out / "worker_counts.json"
    worker = (f"{shlex.quote(sys.executable)} -u {shlex.quote(str(BENCH_DIR / 'worker.py'))} "
              f"--counts {shlex.quote(str(counts_file))}")
    argv = ["benchmark", "--schema", args.schema, "--data", args.data,
            "--model", f"proc:{worker}", "--workers", "1", "--seed", str(args.seed),
            "--max-instances", str(args.max_instances), "--out", str(out / "artifacts")]

    explain: list[tuple[str, float]] = []  # (explainer id, seconds), in call order
    metrics_s: dict[int, float] = defaultdict(float)  # instance id -> metrics seconds
    seen = []  # (explanation, context) pairs handed to compute_metrics
    errors: list[str] = []
    phase = {"kernel_s": 0.0}
    kernel: list[float] = []  # reference kernel samples, one after each instance
    n_ids = len(cli.EXPLAINER_IDS)
    handles = []
    r = Rebinder()
    explainer_fn, compute_metrics = cli._explainer_fn, cli.compute_metrics

    def timed_explainer_fn(eid):
        fn = explainer_fn(eid)

        def timed(x0, ctx):
            t0 = time.perf_counter()
            try:
                return fn(x0, ctx)
            except Exception as exc:
                errors.append(f"{eid}: {exc!r}")
                raise
            finally:
                explain.append((eid, time.perf_counter() - t0))
                if len(explain) % n_ids == 0:
                    kernel.append(kernel_s("python"))
                    phase["kernel_s"] += kernel[-1]

        return timed

    def timed_metrics(expl, ctx, instance_id=0):
        t0 = time.perf_counter()
        rec = compute_metrics(expl, ctx, instance_id)
        metrics_s[instance_id] += time.perf_counter() - t0
        seen.append((expl, ctx))
        return rec

    kernel.extend(kernel_s("python") for _ in range(KERNEL_RUNS_AROUND))
    tracer = Tracer() if args.trace else None
    try:
        r.set(cli, "_explainer_fn", timed_explainer_fn)
        r.set(cli, "compute_metrics", timed_metrics)
        if tracer is None:
            build = cli.external_model

            def external_model(spec):
                handles.append(build(spec))
                return handles[-1]

            r.set(cli, "external_model", external_model)
            t0 = time.perf_counter()
            rc = cli.run_command(argv)
            wall = time.perf_counter() - t0
        else:
            with instrument_cli(tracer, handles.append):
                t0 = time.perf_counter()
                with tracer.span("cli"):
                    rc = cli.run_command(argv)
                wall = time.perf_counter() - t0
    finally:
        r.restore()
        for handle in handles:
            handle.close()

    # Output checks on everything the CLI explained.
    problems = list(errors)
    for expl, ctx in seen:
        found = explanation_problems(expl.explainer_id, expl.source, expl, ctx.mean_mode_instance())
        found.append(flip_problem(lambda x: int(worker_score(x) >= 0.5), expl))
        found = [p for p in found if p]
        if found:
            problems.append(f"{expl.explainer_id}: {'; '.join(found)}")

    kernel.extend(kernel_s("python") for _ in range(KERNEL_RUNS_AROUND))
    query_s = [sum(s for _, s in explain[i:i + n_ids]) + metrics_s[i // n_ids]
               for i in range(0, len(explain), n_ids)]
    doc = {
        "rc": rc,
        "wall_s": wall - phase["kernel_s"],
        "factor": speed_factor(kernel, "python"),
        "attempted": len(explain),
        "problems": problems,
        "explain": explain,
        "query_s": query_s,
        "metrics_s": sum(metrics_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worker": json.loads(counts_file.read_text()) if counts_file.exists() else None,
        "digests": {name: sha256(out / "artifacts" / name) for name in ARTIFACTS
                    if rc == 0 and (out / "artifacts" / name).exists()},
    }
    if seen:
        ctx = seen[0][1]
        iters = cands = 0
        for expl, _ in seen:
            i, c = iteration_counts(
                expl, ctx.mean_mode_instance() if expl.explainer_id == "sedc" else expl.anchor)
            iters += i
            cands += c
        doc["iterations"] = iters
        doc["candidates"] = cands
        doc["case_base_pairs"] = len(ctx.case_base())
    if tracer is not None:
        worker = doc["worker"] or {}
        factor = doc["factor"]
        layers = layer_metrics(tracer, tracer, len(explain), factor)
        layers.update({
            "tabular.load_s": tracer.total("tabular.load") / factor,
            "model.warm_s": tracer.total("setup.warm") / factor,
            "model.request_ms_p50": p50(tracer.durations["model.request"]) * 1e3 / factor,
            "model.worker_busy_frac": ratio(worker.get("busy_s", 0.0), tracer.total("model.request")),
            "plausibility.train_s": tracer.total("plausibility.train") / factor,
            "explainers.case_base_s": tracer.total("setup.case_base") / factor,
            "evaluation.summarize_s": tracer.total("evaluation.summarize") / factor,
            "evaluation.write_s": tracer.total("evaluation.write") / factor,
            # The kernel runs between explainer spans, inside the cli span.
            "cli.self_s": (tracer.self_time("cli") - phase["kernel_s"]) / factor,
        })
        doc["layers"] = layers
        doc["span_table"] = tracer.table()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

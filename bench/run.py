"""Benchmark of nicecf: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload logistic-5k --seed 606 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json`` (``end_to_end`` with ``--trace 0``, ``per_layer`` with
``--trace 1``). Times are scaled to a reference speed of the machine, which
drifts; ``bench/README.md`` says how. The lines before the JSON line
describe the run and its environment. Exits 1 when an output check fails, 2
when the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread: the machine this was written on has 2 vCPUs, cli-proc needs
# one for its worker, and multi-threaded BLAS made set-up time swing from run
# to run. Must be set before numpy is first imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("logistic-5k", "knn5-5k", "cli-proc")
DEFAULT_SEEDS = {"logistic-5k": 606, "knn5-5k": 606, "cli-proc": 0}


def environment() -> dict:
    import numpy
    import scipy

    src = sorted((ROOT / "src" / "nicecf").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not (ROOT / "src" / "nicecf" / "__init__.py").is_file():
        print(f"error: no nicecf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))

    import cliproc
    import library

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        runner = cliproc.run if args.workload == "cli-proc" else library.run
        result = runner(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass  # another run is still using it

    unknown = set(result.metrics) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    print(f"workload {args.workload}, seed {seed}, {args.seconds:g} s, trace {args.trace}")
    for line in result.notes:
        print(line)
    for m in wanted:
        measured = m["name"] in result.metrics
        value = float(result.metrics.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40}{value:>16.6g} {m['unit']}{'' if measured else '  (not on this workload)'}")
    print(f"failed_frac {result.failed / max(result.attempted, 1):.6g} "
          f"({result.failed} of {result.attempted} explanations)")
    for problem in result.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"environment": environment()}))
    correct = result.failed == 0 and result.attempted > 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

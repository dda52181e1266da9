"""The cli-proc workload: whole ``nicecf benchmark`` commands with a ``proc:`` model.

Data: ``make_dataset(2000, 3, 3, seed=DATA_SEED, noise=0.02, quantize=0.5)``
saved as a schema/CSV pair; the run's seed is the command's ``--seed``, which
fixes the train/test split and the autoencoder. Each command explains the
400 test rows with all seven explainers through one worker process that
scores every row over a JSON pipe.

Each command runs in its own process (``cli_child.py``), one at a time, so
at most the command and its worker are busy at once.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import BENCH_DIR, Result, check_digests, percentile
from tracing import ratio

from nicecf import make_dataset, save_dataset

DATA_SEED = 3
SETUP_REPEATS = 5
MIN_COMMANDS = 2
N_TEST = 400  # 2000 rows, test fraction 0.2
N_EXPLAINERS = 7
COMMAND_TIMEOUT_S = 120


def command(work: Path, seed: int, index: int, max_instances: int, trace: bool) -> dict:
    """Run one command in a child process and return its JSON report."""
    out = work / f"cmd{index}"
    out.mkdir()
    argv = [sys.executable, str(BENCH_DIR / "cli_child.py"),
            "--schema", str(work / "schema.json"), "--data", str(work / "data.csv"),
            "--out", str(out), "--seed", str(seed),
            "--max-instances", str(max_instances), "--trace", str(int(trace))]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the command and its worker
        proc.communicate()
        return {"error": f"command timed out after {COMMAND_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited with {proc.returncode}: {stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def absorb(result: Result, doc: dict, expected: int) -> bool:
    """Fold one command's checks into the result; False when it did not complete."""
    if "error" in doc or doc["rc"] != 0:
        result.attempted += expected
        result.fail(expected, doc.get("error") or f"nicecf exited with code {doc['rc']}")
        return False
    result.attempted += doc["attempted"]
    for problem in doc["problems"]:
        result.fail(1, problem)
    return True


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    result = Result()
    data = make_dataset(2000, 3, 3, seed=DATA_SEED, noise=0.02, quantize=0.5)
    save_dataset(data, work / "schema.json", work / "data.csv")
    index = 0

    def next_command(max_instances: int, traced: bool) -> dict | None:
        nonlocal index
        index += 1
        doc = command(work, seed, index, max_instances, traced)
        ok = absorb(result, doc, min(max_instances, N_TEST) * N_EXPLAINERS)
        return doc if ok else None

    setups = [] if trace else [next_command(1, False) for _ in range(SETUP_REPEATS)]
    full, traced_docs = [], []
    start = time.perf_counter()
    # Start another command (with its traced twin) only while it fits in the time.
    while len(full) < MIN_COMMANDS or (
        (time.perf_counter() - start) * (len(full) + 1) / len(full) <= seconds
    ):
        full.append(next_command(N_TEST, False))
        if trace:
            traced_docs.append(next_command(N_TEST, True))
    if None in full + traced_docs + setups:
        return result

    full_digests = {json.dumps(d["digests"], sort_keys=True) for d in full + traced_docs}
    if len(full_digests) != 1:
        result.fail(N_TEST * N_EXPLAINERS, "artifacts differ between identical commands")
    check_digests(result, workload, seed, full[0]["digests"], N_TEST * N_EXPLAINERS)
    worker = full[0]["worker"]
    n_expl = full[0]["attempted"]
    result.notes.append(
        f"{len(full)} commands of {n_expl} explanations, raw run s {[round(d['wall_s'], 3) for d in full]}; "
        f"worker: {worker['requests']} requests, {worker['rows']} rows; "
        f"case base {full[0].get('case_base_pairs')} pairs"
    )

    def per_instance(docs, values):
        """Each instance's median time over the commands, at the reference speed."""
        return np.median([np.asarray(values(d), dtype=np.float64) / d["factor"] for d in docs],
                         axis=0)

    def explain_s(eid):
        return lambda d: [s for e, s in d["explain"] if e == eid]

    result.notes.append(f"speed factors {[round(d['factor'], 3) for d in full]}")
    query_s = per_instance(full, lambda d: d["query_s"])
    if not trace:
        spars_s = per_instance(full, explain_s("nice-spars"))
        result.notes.append(f"setup s {[round(d['wall_s'], 3) for d in setups]}")
        result.metrics = {
            "setup_s": statistics.median(d["wall_s"] / d["factor"] for d in setups),
            "explanations_per_s": n_expl / query_s.sum(),
            "query_ms_p50": percentile(query_s, 50) * 1e3,
            "query_ms_p90": percentile(query_s, 90) * 1e3,
            "spars_ms_p50": percentile(spars_s, 50) * 1e3,
            "spars_ms_p90": percentile(spars_s, 90) * 1e3,
            "run_s": statistics.median(d["wall_s"] / d["factor"] for d in full),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in full),
        }
        return result

    result.notes.extend(traced_docs[-1]["span_table"])
    metrics = {
        name: statistics.median(d["layers"][name] for d in traced_docs)
        for name in traced_docs[0]["layers"]
    }
    metrics.update({
        "model.requests_per_expl": worker["requests"] / n_expl,
        "model.rows_per_request": ratio(worker["rows"], worker["requests"]),
        "explainers.iterations_per_expl": full[0]["iterations"] / n_expl,
        "explainers.candidates_per_iteration": ratio(full[0]["candidates"], full[0]["iterations"]),
        "explainers.case_base_pairs": full[0]["case_base_pairs"],
        "evaluation.metrics_ms_per_expl": statistics.median(d["metrics_s"] / d["factor"] for d in full)
        / n_expl * 1e3,
        "trace.overhead_frac": per_instance(traced_docs, lambda d: d["query_s"]).sum()
        / query_s.sum() - 1.0,
    })
    for eid in {eid for eid, _ in full[0]["explain"]}:
        metrics[f"explainers.{eid}_ms_p50"] = percentile(per_instance(full, explain_s(eid)), 50) * 1e3
    result.metrics = metrics
    return result

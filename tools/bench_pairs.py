"""Alternate benchmark runs of a git revision and the working tree, and compare them.

    python tools/bench_pairs.py --ref REV --workload W --pairs N [--seconds S] [--seed K]

``REV`` is extracted with ``git archive`` into a temporary directory, so the
checkout and ``.git`` are left as they are. Each pair runs
``bench/run.py --workload W --seconds S --trace 0`` (and ``--seed K`` when
given) once in that tree and once in the working tree, the revision first in odd pairs and the working
tree first in even ones, so a drift of the machine's speed favours neither
side. For each ``end_to_end`` metric of the working tree's
``BENCHMARK.json`` it prints the median and quartiles of both sides, the
change of the median, and the pairs the working tree won, reading
``better`` from that file; a tie wins for neither side. Exits 1 when a run
fails or prints ``correct: false``, or ``REV`` cannot be extracted. Run it
from anywhere inside the repository.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOP = Path(__file__).resolve().parent.parent


def run_doc(line: str) -> dict:
    """The JSON object of a benchmark run's last output line; ValueError unless it is correct."""
    doc = json.loads(line)
    if doc.get("correct") is not True:
        raise ValueError(f"run is not correct: {line.strip()}")
    return doc


def summarize(end_to_end: list[dict], ref_lines: list[str], new_lines: list[str]) -> list[dict]:
    """Per metric, the quartiles of each side and the pairs the new side won.

    ``end_to_end`` is ``BENCHMARK.json``'s list; ``ref_lines`` and
    ``new_lines`` are the last output lines of the runs, the i-th of each
    forming pair i. A metric missing from a run is skipped. Raises
    ValueError when the sides differ in length or a run is not correct.
    """
    if len(ref_lines) != len(new_lines):
        raise ValueError(f"{len(ref_lines)} runs at the ref against {len(new_lines)}")
    ref = [run_doc(line)["metrics"] for line in ref_lines]
    new = [run_doc(line)["metrics"] for line in new_lines]
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        if any(name not in m for m in ref + new):
            continue
        a = np.array([m[name]["value"] for m in ref])
        b = np.array([m[name]["value"] for m in new])
        won = b < a if metric["better"] == "lower" else b > a
        rows.append({"name": name, "unit": metric["unit"], "better": metric["better"],
                     "ref": tuple(np.percentile(a, [25, 50, 75]).tolist()),
                     "new": tuple(np.percentile(b, [25, 50, 75]).tolist()),
                     "won": int(won.sum()), "pairs": len(a)})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<20} {'unit':<5} {'ref median [q1, q3]':<30} "
             f"{'new median [q1, q3]':<30} {'change':>8} {'won':>7}"]
    for r in rows:
        (a1, a, a3), (b1, b, b3) = r["ref"], r["new"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{r['name']:<20} {r['unit']:<5} {f'{a:.4g} [{a1:.4g}, {a3:.4g}]':<30} "
                     f"{f'{b:.4g} [{b1:.4g}, {b3:.4g}]':<30} {change:>8} "
                     f"{r['won']:>3}/{r['pairs']}")
    return "\n".join(lines)


def bench(tree: Path, workload: str, seconds: float, seed: int | None) -> str:
    """Run the tree's own ``bench/run.py`` from its top and return its last output line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
           "--trace", "0"] + ([] if seed is None else ["--seed", str(seed)])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode != 0:
        raise ValueError(f"{tree}: bench/run.py exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    run_doc(last[0])
    return last[0]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    args = parser.parse_args(argv[1:])
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((TOP / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.ref], cwd=TOP,
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"error: {archive.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 1
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"ref": Path(tmp), "new": TOP}
        lines: dict[str, list[str]] = {"ref": [], "new": []}
        try:
            for i in range(args.pairs):
                for side in ("ref", "new") if i % 2 == 0 else ("new", "ref"):
                    lines[side].append(bench(sides[side], args.workload, args.seconds, args.seed))
                    print(f"pair {i + 1}/{args.pairs} {side}: done", file=sys.stderr)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    seed = "its default seed" if args.seed is None else f"seed {args.seed}"
    print(f"{args.workload} at {seed}: {args.ref} (ref) against the working tree (new), "
          f"{args.pairs} pairs of {args.seconds:g} s")
    print(render(summarize(spec["end_to_end"], lines["ref"], lines["new"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""A CLI input fuzzer: every drawn schema and CSV ends in exit 0 or exit 1.

Exit 2 is left for failures of external models, so under built-in models
any input, however odd, is either handled or reported as an input error.
"""

import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nicecf.cli import run_command

# Extremes of the float range next to ordinary values: the smallest
# subnormal, a tiny normal, and huge values of both signs, up to near the top.
NUMBERS = st.sampled_from(
    (0.0, 1.0, -2.5, 3.0, 5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308))
MODELS = ("builtin:logistic", "builtin:knn:1")


@st.composite
def csv_bytes(draw):
    """A schema document and the bytes of a CSV over it, often slightly broken."""
    kinds = draw(st.lists(st.sampled_from(("numerical", "categorical")),
                          min_size=1, max_size=4))
    names = [f"f{j}" for j in range(len(kinds))]
    n = draw(st.sampled_from(range(1, 13)))
    one_class = draw(st.integers(0, 3)) == 0
    labels = st.just(draw(st.sampled_from((0, 1)))) if one_class else st.sampled_from((0, 1))
    rows = [[draw(NUMBERS if kind == "numerical" else st.sampled_from("abc")) for kind in kinds]
            + [draw(labels)] for _ in range(n)]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow([*names, "y"])
    writer.writerows(rows)
    data = text.getvalue().encode()
    # Half of the files stay valid, so that most runs get past loading.
    mutation = draw(st.sampled_from(("none",) * 5 + (
        "truncate", "bom", "crlf", "stray-quote", "repeated-header")))
    if mutation == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif mutation == "bom":
        data = b"\xef\xbb\xbf" + data
    elif mutation == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif mutation == "stray-quote":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b'"' + data[at:]
    elif mutation == "repeated-header":
        header = data[: data.index(b"\n") + 1]
        at = draw(st.sampled_from([i + 1 for i, b in enumerate(data) if b == ord("\n")]))
        data = data[:at] + header + data[at:]
    schema = {"features": [{"name": name, "kind": kind} for name, kind in zip(names, kinds)],
              "label": "y"}
    return schema, data


@st.composite
def invocations(draw):
    """Arguments of one subcommand, besides --schema, --data and --out."""
    command = draw(st.sampled_from(("describe", "explain", "benchmark", "robustness")))
    if command == "describe":
        return [command]
    models = [draw(st.sampled_from(MODELS)) for _ in range(2 if command == "robustness" else 1)]
    args = [command, *(a for m in models for a in ("--model", m)),
            "--seed", str(draw(st.integers(0, 3)))]
    if command == "explain":
        args += ["--variant", draw(st.sampled_from(("none", "spars", "prox", "plaus")))]
    else:
        args += ["--test-fraction", str(draw(st.sampled_from((0.2, 0.5, 0.8))))]
    return args


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def check_outputs(out: Path) -> None:
    """Every JSON and CSV file the command wrote parses, and CSV rows are all one width.

    JSON is parsed strictly: ``NaN`` and ``Infinity``, which Python's ``json`` reads, fail.
    """
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)
    for path in out.glob("*.csv"):
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
        assert rows and all(len(row) == len(rows[0]) for row in rows), path.name


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(csv_bytes(), invocations())
def test_every_input_ends_in_exit_0_or_1(tmp_path, files, argv):
    schema, data = files
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    (root / "schema.json").write_text(json.dumps(schema))
    (root / "data.csv").write_bytes(data)
    out = root / "out"
    io_args = ["--schema", str(root / "schema.json"), "--data", str(root / "data.csv")]
    if argv[0] != "describe":
        io_args += ["--out", str(out)]
    code = run_command([*argv, *io_args])
    assert code in (0, 1)
    if code == 0 and out.exists():
        check_outputs(out)

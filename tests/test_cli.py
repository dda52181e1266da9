import ast
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nicecf
import nicecf.cli
from nicecf.cli import run_command
from nicecf.synthetic import make_dataset, save_dataset
from nicecf.tabular import Dataset, FeatureSpec, fit_stats, load_dataset, split
from test_cli_fuzz import reject_constant
from test_external_model import (
    MALFORMED_REPLIES,
    UNREADABLE_SCORES,
    raw_http_server,
    replying_worker,
)


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    data = make_dataset(80, 2, 2, seed=13, noise=0.05, quantize=0.5, n_categories=2)
    save_dataset(data, root / "schema.json", root / "data.csv")
    return str(root / "schema.json"), str(root / "data.csv")


@pytest.fixture(scope="module")
def unlabeled_files(tmp_path_factory, data_files):
    schema_path, csv_path = data_files
    root = tmp_path_factory.mktemp("cli-unlabeled")
    doc = json.loads(Path(schema_path).read_text())
    doc["label"] = None
    (root / "schema.json").write_text(json.dumps(doc))
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    with open(root / "data.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([r[:-1] for r in rows])
    return str(root / "schema.json"), str(root / "data.csv")


def common(data_files, *extra):
    schema, data = data_files
    return ["--schema", schema, "--data", data, *extra]


class TestParsing:
    def test_describe(self, data_files, capsys):
        assert run_command(["describe", *common(data_files)]) == 0
        out = capsys.readouterr().out
        assert "rows: 80" in out
        assert "num0" in out and "cat1" in out
        assert "labels: class 0" in out

    def test_missing_file(self, data_files, capsys):
        schema, _ = data_files
        code = run_command(["describe", "--schema", schema, "--data", "/nonexistent.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, data_files, capsys):
        assert run_command(["describe", *common(data_files), "--bogus"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 1

    def test_missing_required_flag(self, data_files, capsys):
        schema, _ = data_files
        assert run_command(["describe", "--schema", schema]) == 1

    def test_unknown_explainer(self, data_files, tmp_path, capsys):
        code = run_command(
            ["benchmark", *common(data_files), "--model", "builtin:logistic",
             "--explainers", "nice-spars,bogus", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_model_spec(self, data_files, capsys):
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:forest", "--index", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unrecognized model spec 'builtin:forest'\n"

    def test_model_spec_without_a_known_prefix(self, data_files, capsys):
        code = run_command(["explain", *common(data_files), "--model", "forest", "--index", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: unrecognized model spec 'forest'\n"

    def test_worker_that_cannot_start_is_runtime_failure(self, data_files, capsys):
        code = run_command(["explain", *common(data_files), "--model", "proc:/nonexistent/worker",
                            "--index", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot start '/nonexistent/worker': ")

    @pytest.mark.parametrize("spec", ["builtin:knn:three", "builtin:knn:"])
    def test_bad_neighbor_count(self, data_files, spec, capsys):
        code = run_command(["explain", *common(data_files), "--model", spec, "--index", "0"])
        assert code == 1
        assert f"bad neighbor count in model spec '{spec}'" in capsys.readouterr().err

    def test_knn_without_a_count_takes_five(self, data_files, capsys):
        docs = []
        for spec in ("builtin:knn", "builtin:knn:5"):
            assert run_command(["explain", *common(data_files), "--model", spec,
                                "--index", "3"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsed_ms"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_empty_explainer_list(self, data_files, tmp_path, capsys):
        code = run_command(["benchmark", *common(data_files), "--model", "builtin:logistic",
                            "--explainers", " , ", "--out", str(tmp_path)])
        assert code == 1
        assert "empty explainer list" in capsys.readouterr().err

    def test_explain_takes_one_model(self, data_files, capsys):
        code = run_command(["explain", *common(data_files), "--model", "builtin:logistic",
                            "--model", "builtin:knn", "--index", "0"])
        assert code == 1
        assert "exactly one --model is expected here" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0

    @pytest.mark.parametrize("flag", ["--max-instances", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    @pytest.mark.parametrize("command", [
        ["explain", "--model", "builtin:logistic"],
        ["benchmark", "--model", "builtin:logistic"],
        ["robustness", "--model", "builtin:logistic", "--model", "builtin:logistic"],
    ], ids=["explain", "benchmark", "robustness"])
    def test_counts_below_one_rejected(self, data_files, tmp_path, command, flag, value, capsys):
        code = run_command(
            [command[0], *common(data_files), *command[1:], flag, value,
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("features", [
        ["num0", 5], {"name": "num0"},
        [{"name": "num0", "kind": "numerical", "categories": 5}],
    ])
    def test_malformed_schema_is_input_error(self, data_files, tmp_path, features, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": features, "label": "label"}))
        code = run_command(["describe", "--schema", str(schema), "--data", data_files[1]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


    def test_empty_label_name_is_input_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": [{"name": "f0", "kind": "numerical"}],
                                      "label": ""}))
        (tmp_path / "data.csv").write_text("f0\n1.0\n")
        code = run_command(["describe", "--schema", str(schema),
                            "--data", str(tmp_path / "data.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: schema 'label' must not be empty")


# JSON text that json.loads rejects with other errors than JSONDecodeError:
# an int literal over Python's 4300-digit limit (ValueError) and nesting
# deeper than the recursion limit (RecursionError).
UNPARSABLE_JSON = {"int-over-4300-digits": "1" * 4301,
                   "nested-10000-deep": "[" * 10000 + "]" * 10000}


@pytest.mark.parametrize("name", sorted(UNPARSABLE_JSON))
class TestUnparsableJson:
    """A schema or weights file json.loads cannot take is an input error (exit 1)."""

    def test_schema_file(self, data_files, tmp_path, name, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(UNPARSABLE_JSON[name])
        code = run_command(["describe", "--schema", str(schema), "--data", data_files[1]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: schema file is not valid JSON: ")

    def test_weights_file(self, data_files, tmp_path, name, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(UNPARSABLE_JSON[name])
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: weights file is not valid JSON: ")


# Every command that loads data, with the arguments it needs besides --schema/--data.
LOADING_COMMANDS = {
    "describe": [],
    "explain": ["--model", "builtin:logistic", "--out", "{out}"],
    "benchmark": ["--model", "builtin:logistic", "--out", "{out}"],
    "robustness": ["--model", "builtin:logistic", "--model", "builtin:logistic",
                   "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
class TestEmptyInputs:
    """A data set without features or without rows is an input error (exit 1)."""

    def run(self, command, schema_doc, csv_text, tmp_path):
        (tmp_path / "schema.json").write_text(json.dumps(schema_doc))
        (tmp_path / "data.csv").write_text(csv_text)
        extra = [a.format(out=tmp_path / "out") for a in LOADING_COMMANDS[command]]
        return run_command([command, "--schema", str(tmp_path / "schema.json"),
                            "--data", str(tmp_path / "data.csv"), *extra])

    def test_empty_feature_list(self, command, tmp_path, capsys):
        code = self.run(command, {"features": [], "label": "label"},
                        "label\n0\n1\n0\n1\n", tmp_path)
        assert code == 1
        assert "non-empty 'features' list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_only_csv(self, command, tmp_path, capsys):
        schema = {"features": [{"name": "num0", "kind": "numerical"}], "label": "label"}
        code = self.run(command, schema, "num0,label\n", tmp_path)
        assert code == 1
        assert "no data rows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Data that leaves one training row, which the autoencoder cannot train on.
ONE_TRAINING_ROW = {
    "explain": ("f0,y\na,1\n", ["--variant", "none"]),
    "benchmark": ("f0,y\na,1\nb,0\n", ["--test-fraction", "0.5"]),
    "robustness": ("f0,y\na,1\nb,0\n", ["--test-fraction", "0.5"]),
}


@pytest.mark.parametrize("model", ["builtin:logistic", "builtin:knn:1"])
@pytest.mark.parametrize("command", sorted(ONE_TRAINING_ROW))
def test_data_a_builtin_fit_cannot_use_is_an_input_error(command, model, tmp_path, capsys):
    (tmp_path / "schema.json").write_text(json.dumps(
        {"features": [{"name": "f0", "kind": "categorical"}], "label": "y"}))
    csv_text, extra = ONE_TRAINING_ROW[command]
    (tmp_path / "data.csv").write_text(csv_text)
    models = ["--model", model] * (2 if command == "robustness" else 1)
    code = run_command([command, "--schema", str(tmp_path / "schema.json"),
                        "--data", str(tmp_path / "data.csv"), *models, *extra,
                        "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: autoencoder training needs at least 2 rows\n"
    assert not (tmp_path / "out").exists()


# Numbers that fit_stats and the logistic model cannot take. The seed-1 split
# trains on rows holding only 0 and 5e-324 in f0 and f1, so the test row
# (1.0, -2.5, 0) encodes as (inf, -inf, 0) and its logit is NaN.
UNUSABLE_NUMBERS = {
    "range": (["describe"], "f0,f1,f2,y\n1.7e308,0,0,0\n-1.7e308,0,0,1\n",
              "error: non-finite range inf for 'f0'\n"),
    "logit": (["benchmark", "--model", "builtin:logistic", "--seed", "1",
               "--test-fraction", "0.5"],
              "f0,f1,f2,y\n0,0,0,0\n0,0,0,0\n0,0,0,0\n1.0,-2.5,0,0\n5e-324,5e-324,0,0\n",
              "error: row cannot be scored: its encoding adds +inf and -inf\n"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_NUMBERS))
def test_numbers_the_statistics_or_model_cannot_take_are_an_input_error(case, tmp_path, capsys):
    argv, csv_text, message = UNUSABLE_NUMBERS[case]
    (tmp_path / "schema.json").write_text(json.dumps(
        {"features": [{"name": f"f{j}", "kind": "numerical"} for j in range(3)], "label": "y"}))
    (tmp_path / "data.csv").write_text(csv_text)
    code = run_command([*argv, "--schema", str(tmp_path / "schema.json"),
                        "--data", str(tmp_path / "data.csv")]
                       + (["--out", str(tmp_path / "out")] if argv[0] != "describe" else []))
    assert code == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_an_infinite_mean_is_written_as_json_null(tmp_path):
    # The seed-1 split trains on rows whose f2 spans only 5e-324, so every
    # valid counterfactual of the test row lies at an infinite distance.
    (tmp_path / "schema.json").write_text(json.dumps(
        {"features": [{"name": f"f{j}", "kind": "numerical"} for j in range(3)], "label": "y"}))
    (tmp_path / "data.csv").write_text(
        "f0,f1,f2,y\n0.0,0.0,0.0,0\n0.0,0.0,-2.5,0\n0.0,0.0,5e-324,0\n0.0,0.0,0.0,0\n")
    out = tmp_path / "out"
    assert run_command(["benchmark", "--model", "builtin:logistic", "--seed", "1",
                        "--test-fraction", "0.5", "--schema", str(tmp_path / "schema.json"),
                        "--data", str(tmp_path / "data.csv"), "--out", str(out)]) == 0
    with open(out / "records.csv", newline="") as fh:
        proximities = {r["proximity"] for r in csv.DictReader(fh) if r["valid"] == "true"}
    assert proximities == {"inf"}
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["per_explainer"]["nice-spars"]["mean_proximity"] is None
    assert summary["per_explainer"]["nice-spars"]["mean_sparsity"] == 1.0


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
def test_csv_that_is_not_utf8_is_an_input_error(command, tmp_path, capsys):
    (tmp_path / "schema.json").write_text(json.dumps(
        {"features": [{"name": "c", "kind": "categorical"}], "label": "label"}))
    # The byte 0xff comes after the first read buffer, so rows were read already.
    (tmp_path / "data.csv").write_bytes(b"c,label\n" + b"a,0\nb,1\n" * 2000 + b"\xff,1\n")
    extra = [a.format(out=tmp_path / "out") for a in LOADING_COMMANDS[command]]
    code = run_command([command, "--schema", str(tmp_path / "schema.json"),
                        "--data", str(tmp_path / "data.csv"), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: CSV file is not UTF-8: ")
    assert not (tmp_path / "out").exists()


class TestTrain:
    def test_train_subcommand_removed(self, data_files, tmp_path, capsys):
        code = run_command(
            ["train", *common(data_files), "--model", "builtin:logistic",
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert not (tmp_path / "model.json").exists()

    def test_train_ae_subcommand_removed(self, data_files, tmp_path, capsys):
        code = run_command(["train-ae", *common(data_files), "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "autoencoder.json").exists()


class TestExplain:
    def test_single_index_stdout(self, data_files, capsys):
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["explainer"] == "nice-spars"
        assert doc["row"] == 0
        assert doc["valid"] is True
        assert set(doc["metrics"]) == {"sparsity", "proximity", "ae_error", "knn5"}
        assert doc["metrics"]["sparsity"] == len(doc["changes"])

    def test_index_out_of_bounds(self, data_files, capsys):
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "80"]
        )
        assert code == 1

    def test_index_checked_before_fitting(self, data_files, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("autoencoder trained for an out-of-range --index")

        monkeypatch.setattr(nicecf.cli, "train_autoencoder", fail)
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "100000"]
        )
        assert code == 1
        assert "--index 100000 outside 0..79" in capsys.readouterr().err

    def test_batch_to_file_with_cap(self, data_files, tmp_path, capsys):
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:knn:5",
             "--variant", "prox", "--max-instances", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        docs = json.loads((tmp_path / "explanations.json").read_text())
        assert len(docs) == 5
        assert all(d["explainer"] == "nice-prox" for d in docs)

    def test_workers_do_not_change_results(self, data_files, capsys):
        def strip(docs):
            return [{k: v for k, v in d.items() if k != "elapsed_ms"} for d in docs]

        outputs = []
        for workers in ("1", "3"):
            code = run_command(
                ["explain", *common(data_files), "--model", "builtin:logistic",
                 "--variant", "plaus", "--max-instances", "8", "--workers", workers]
            )
            assert code == 0
            outputs.append(strip(json.loads(capsys.readouterr().out)))
        assert outputs[0] == outputs[1]

    def test_requires_labels(self, unlabeled_files):
        code = run_command(
            ["explain", *common(unlabeled_files), "--model", "builtin:logistic",
             "--index", "0"]
        )
        assert code == 1

    def test_no_unlike_neighbor_is_reported(self, data_files, capsys):
        code = run_command(["explain", *common(data_files), "--model", proc_spec(CONSTANT_WORKER),
                            "--variant", "prox", "--index", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("elapsed_ms") >= 0.0
        source = list(load_dataset(*data_files).rows[5])
        assert doc == {"explainer": "nice-prox", "row": 5, "valid": False,
                       "source": source, "counterfactual": source, "changes": [], "trace": [],
                       "metrics": dict.fromkeys(("sparsity", "proximity", "ae_error", "knn5"))}

    def test_dead_external_worker_is_runtime_failure(self, data_files, capsys):
        spec = f"proc:{sys.executable} -c 'import sys; sys.exit(1)'"
        code = run_command(
            ["explain", *common(data_files), "--model", spec, "--index", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_http_reply_is_runtime_failure(self, data_files, capsys):
        with raw_http_server(MALFORMED_REPLIES["bad-status-line"]) as address:
            code = run_command(
                ["explain", *common(data_files), "--model", f"http:{address}", "--index", "0"]
            )
        assert code == 2
        assert "error: endpoint" in capsys.readouterr().err


class TestWeights:
    def test_unknown_feature_rejected(self, data_files, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"made_up": 2.0}))
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 1

    def test_valid_weights_accepted(self, data_files, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"num0": 2.0, "cat0": 0.5}))
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 0

    def test_malformed_weights_file(self, data_files, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text("{not json")
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 1

    def test_weights_that_are_not_a_mapping_rejected(self, data_files, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps([2.0, 0.5]))
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: weights file must map feature names to numbers\n"

    @pytest.mark.parametrize("value", ["abc", None, True, [1.0], {"w": 1.0}])
    def test_non_numeric_weight_rejected(self, data_files, tmp_path, value, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"num0": 2.0, "cat0": value}))
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    # Written as JSON text: 1e400 parses as inf, NaN as nan, and 1 with 400
    # zeros as an int too large for a float, whose digits the message leaves out.
    @pytest.mark.parametrize("value", ["-1", "0", "NaN", "1e400", "1" + "0" * 400],
                             ids=["-1", "0", "NaN", "1e400", "10**400"])
    def test_non_positive_or_non_finite_weight_rejected(
        self, data_files, tmp_path, value, capsys
    ):
        weights = tmp_path / "weights.json"
        weights.write_text(f'{{"num0": {value}}}')
        code = run_command(
            ["explain", *common(data_files), "--model", "builtin:logistic",
             "--index", "0", "--weights", str(weights)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "positive and finite" in err
        assert "0" * 400 not in err


def child_env(**extra):
    """The environment of a child Python that imports the nicecf package under test."""
    paths = [str(Path(nicecf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


# Run in a child process, so that the logging set-up leaves pytest's root logger alone.
@pytest.mark.parametrize("level, logged", [("info", True), ("bogus", True), ("warning", False)])
def test_nice_log_sets_the_level(data_files, tmp_path, level, logged):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from nicecf.cli import run_command; "
         "sys.exit(run_command(sys.argv[1:]))", "benchmark", *common(data_files),
         "--model", "builtin:logistic", "--explainers", "nice-none", "--max-instances", "3",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env(NICE_LOG=level), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert ("INFO:nicecf.cli:explaining 3 instances with ['nice-none']" in proc.stderr) == logged


# Run in a fresh process, since pytest and other tests import scipy.stats themselves.
SCIPY_PACKAGES_AFTER_A_SUMMARY = """
import json, sys
import nicecf.cli
from nicecf.evaluation import MetricRecord, summarize_records

records = [MetricRecord(i, e, True, 1.0, sparsity=i % 3 + len(e))
           for i in range(4) for e in ("a", "bb")]
summary = summarize_records(records)
print(json.dumps({
    "friedman": "friedman_reject" in summary["ranking"]["sparsity"],
    "stats": "scipy.stats" in sys.modules,
    "public": sorted(name for name, module in sys.modules.items()
                     if name.startswith("scipy.") and name.count(".") == 1
                     and not name.startswith("scipy._") and hasattr(module, "__path__")),
}))
"""


def test_scipy_special_is_the_only_scipy_subpackage_loaded():
    proc = subprocess.run([sys.executable, "-c", SCIPY_PACKAGES_AFTER_A_SUMMARY],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"friedman": True, "stats": False,
                                      "public": ["scipy.special"]}


class TestBenchmark:
    def run_benchmark(self, data_files, out, *extra):
        return run_command(
            ["benchmark", *common(data_files), "--model", "builtin:logistic",
             "--out", str(out), *extra]
        )

    def test_artifacts_written(self, data_files, tmp_path, capsys):
        assert self.run_benchmark(data_files, tmp_path) == 0
        for name in ("records.csv", "timings.csv", "summary.json", "report.txt"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["explainers"] == [
            "nice-none", "nice-spars", "nice-prox", "nice-plaus", "wit", "sedc", "cbr",
        ]
        assert summary["instances"] == 16  # 20% of 80
        assert "nemenyi_cd" in summary
        report = (tmp_path / "report.txt").read_text()
        assert "Panel B" in report

    def test_same_seed_runs_are_byte_identical(self, data_files, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self.run_benchmark(data_files, out1) == 0
        assert self.run_benchmark(data_files, out2) == 0
        for name in ("records.csv", "summary.json", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_workers_do_not_change_artifacts(self, data_files, tmp_path, capsys):
        out1, out3 = tmp_path / "w1", tmp_path / "w3"
        assert self.run_benchmark(data_files, out1, "--workers", "1") == 0
        assert self.run_benchmark(data_files, out3, "--workers", "3") == 0
        for name in ("records.csv", "summary.json", "report.txt"):
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()

    def test_workers_share_one_proc_worker_without_mixing_replies(self, data_files, tmp_path):
        # Three threads contend for one worker's pipes, switching often. A reply paired
        # with another thread's request changes a score or its count, and unpaired
        # reads can block for good, so each run is a child process with a deadline.
        contend = ("import sys; from nicecf.cli import run_command; "
                   "sys.setswitchinterval(1e-5); sys.exit(run_command(sys.argv[1:]))")
        for workers in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-c", contend, "benchmark", *common(data_files),
                 "--model", proc_spec(SCORING_WORKER), "--out", str(tmp_path / workers),
                 "--workers", workers],
                capture_output=True, text=True, env=child_env(), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("records.csv", "summary.json", "report.txt"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    def test_explainer_subset(self, data_files, tmp_path, capsys):
        code = self.run_benchmark(
            data_files, tmp_path, "--explainers", "nice-spars,wit", "--max-instances", "6"
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["explainers"] == ["nice-spars", "wit"]
        assert summary["instances"] == 6

    def test_empty_test_split_rejected(self, data_files, tmp_path, capsys):
        # 80 rows: ceil(80 * 0.99) = 80 train rows leave no test row.
        code = self.run_benchmark(data_files, tmp_path, "--test-fraction", "0.01")
        assert code == 1
        assert "both must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["builtin:logistic", "builtin:knn:3"])
    def test_category_only_the_test_split_holds(self, tmp_path, model, capsys):
        # The schema declares 'z' for cat0 and only row 4 holds it; at seed 1
        # that row is a test row, so the training statistics never see 'z'.
        data = make_dataset(80, 2, 2, seed=3)
        j = [s.name for s in data.schema].index("cat0")
        schema = [FeatureSpec(s.name, s.kind, s.categories + ("z",)) if s.name == "cat0" else s
                  for s in data.schema]
        rows = list(data.rows)
        rows[4] = rows[4][:j] + ("z",) + rows[4][j + 1:]
        data = Dataset(schema, rows, data.labels)
        files = str(tmp_path / "schema.json"), str(tmp_path / "data.csv")
        save_dataset(data, *files)
        train, test = split(load_dataset(*files), 0.2, seed=1)
        assert "z" not in fit_stats(train)[j].categories
        assert rows[4] in test.rows
        code = run_command(["benchmark", *common(files), "--model", model, "--seed", "1",
                            "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["instances"] == len(test)

    def test_no_unlike_neighbor_is_an_invalid_record(self, data_files, tmp_path, capsys):
        code = run_command(["benchmark", *common(data_files), "--model", proc_spec(CONSTANT_WORKER),
                            "--explainers", "nice-none,cbr", "--max-instances", "3",
                            "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "records.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [(r["instance_id"], r["explainer_id"], r["valid"]) for r in records] == [
            (str(i), eid, "false") for i in range(3) for eid in ("nice-none", "cbr")]
        assert {r["sparsity"] for r in records} == {""}

    @pytest.mark.parametrize("name", sorted(UNREADABLE_SCORES))
    def test_unreadable_worker_reply_is_runtime_failure(self, data_files, tmp_path, name,
                                                        capsys):
        spec = replying_worker(UNREADABLE_SCORES[name][0])
        code = run_command(["benchmark", *common(data_files), "--model", spec,
                            "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: worker '")


class TestRobustness:
    def test_two_models(self, data_files, capsys):
        code = run_command(
            ["robustness", *common(data_files), "--model", "builtin:logistic",
             "--model", "builtin:knn:5", "--explainers", "nice-spars,wit",
             "--max-instances", "10"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "builtin:logistic"
        assert doc["against"] == "builtin:knn:5"
        assert set(doc["robustness"]) == {"nice-spars", "wit"}
        for value in doc["robustness"].values():
            assert value is None or 0.0 <= value <= 1.0

    def test_builds_no_metric_records(self, data_files, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("robustness computed metrics")

        monkeypatch.setattr(nicecf.cli, "compute_metrics", fail)
        code = run_command(
            ["robustness", *common(data_files), "--model", "builtin:logistic",
             "--model", "builtin:knn:5", "--explainers", "nice-spars,wit",
             "--max-instances", "4"]
        )
        assert code == 0
        assert set(json.loads(capsys.readouterr().out)["robustness"]) == {"nice-spars", "wit"}

    def test_single_model_rejected(self, data_files, capsys):
        code = run_command(
            ["robustness", *common(data_files), "--model", "builtin:logistic"]
        )
        assert code == 1
        assert "two --model" in capsys.readouterr().err

    def test_output_file(self, data_files, tmp_path, capsys):
        code = run_command(
            ["robustness", *common(data_files), "--model", "builtin:logistic",
             "--model", "builtin:logistic", "--explainers", "nice-none",
             "--max-instances", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "robustness.json").read_text())
        # same model on both sides: every valid counterfactual flips it
        assert doc["robustness"]["nice-none"] == 1.0


# Worker scoring a row by its first two (numeric) features.
SCORING_WORKER = r"""
import json, math, sys
for line in sys.stdin:
    rows = json.loads(line)["instances"]
    print(json.dumps({"scores": [1 / (1 + math.exp(4 - r[0] - r[1])) for r in rows]}), flush=True)
"""
DEAD_WORKER = "import sys; sys.exit(1)"
# Worker that predicts class 1 for every row, so no training row is an unlike neighbor.
CONSTANT_WORKER = r"""
import json, sys
for line in sys.stdin:
    print(json.dumps({"scores": [0.9] * len(json.loads(line)["instances"])}), flush=True)
"""


def proc_spec(body):
    return f"proc:{sys.executable} -u -c '{body}'"


class TestExternalModelClosed:
    """Every ``proc:`` worker a command starts has exited and been reaped when it returns."""

    @pytest.fixture
    def workers(self, monkeypatch):
        build = nicecf.cli.external_model
        started = []

        def recording(spec, *args, **kwargs):
            handle = build(spec, *args, **kwargs)
            transport = handle.transport
            ensure = transport._ensure

            def recording_ensure():
                proc = ensure()
                if proc not in started:
                    started.append(proc)
                return proc

            transport._ensure = recording_ensure
            return handle

        monkeypatch.setattr(nicecf.cli, "external_model", recording)
        return started

    @pytest.mark.parametrize("argv, code", [
        (["explain", "--model", proc_spec(SCORING_WORKER), "--index", "0"], 0),
        (["explain", "--model", proc_spec(DEAD_WORKER), "--index", "0"], 2),
        (["benchmark", "--model", proc_spec(SCORING_WORKER),
          "--explainers", "nice-spars,sedc", "--max-instances", "3"], 0),
        (["robustness", "--model", proc_spec(SCORING_WORKER),
          "--model", proc_spec(SCORING_WORKER), "--explainers", "nice-none",
          "--max-instances", "3"], 0),
    ], ids=["explain", "explain-dead-worker", "benchmark", "robustness"])
    def test_workers_exited(self, data_files, tmp_path, workers, argv, code, capsys):
        command, *rest = argv
        if command == "benchmark":
            rest += ["--out", str(tmp_path)]
        assert run_command([command, *common(data_files), *rest]) == code
        expected = 2 if command == "robustness" else 1
        assert len(workers) == expected
        # returncode is set only once the process has been waited for
        assert [w.returncode is not None for w in workers] == [True] * expected


def _project():
    """The ``[project]`` table of ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _declared_script(name):
    """The ``module``, ``attr`` pair that ``[project.scripts]`` names for ``name``."""
    module, _, attr = _project()["scripts"][name].partition(":")
    return module.strip(), attr.strip()


def test_every_test_import_is_declared():
    # `pip install -e ".[test]"` must give the suite every module it imports.
    project = _project()
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    tests_dir = Path(__file__).resolve().parent
    local = {path.stem for path in tests_dir.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"nicecf"} | local | declared
    undeclared = {}
    for path in sorted(tests_dir.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in allowed:
                    undeclared.setdefault(path.name, []).append(module)
    assert undeclared == {}


def test_console_entry_point(data_files, tmp_path):
    # Runs the declared target the way pip's generated wrapper does, against
    # the nicecf package this test imported, so no install is needed.
    module, attr = _declared_script("nicecf")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'nicecf'; sys.exit({attr}())"
    )
    schema, data = data_files
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "describe", "--schema", schema, "--data", data],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "rows: 80" in proc.stdout


@pytest.mark.skipif(shutil.which("nicecf") is None, reason="no installed nicecf script on PATH")
def test_installed_console_script(data_files):
    schema, data = data_files
    proc = subprocess.run(
        ["nicecf", "describe", "--schema", schema, "--data", data],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "rows: 80" in proc.stdout

"""The traced benchmark run rebinds package names; they must exist and come back.

``bench/tracing.py`` measures by rebinding module-level names of the package
(``nicecf.model.encode``, ``nicecf.plausibility.encode``, the CLI's own
lookups and others). A refactor that drops or renames one of them makes the
traced run fail at entry; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import nicecf.cli
import nicecf.distance
import nicecf.evaluation
import nicecf.explainers
import nicecf.model
import nicecf.plausibility
from nicecf.explainers import SearchContext
from nicecf.model import SubprocessTransport

OWNERS = (nicecf.cli, nicecf.distance, nicecf.evaluation, nicecf.explainers, nicecf.model,
          nicecf.plausibility, SearchContext, SubprocessTransport)


def load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    return [dict(vars(owner)) for owner in OWNERS]


def changed(before, now):
    return {(OWNERS[i].__name__, name) for i, ns in enumerate(now)
            for name in ns if ns[name] is not before[i].get(name)}


@pytest.mark.parametrize("which", ["library", "cli"])
def test_every_rebound_name_is_restored(which):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    if which == "library":
        instrument = tracing.instrument_library(tracer)
    else:
        instrument = tracing.instrument_cli(tracer, lambda handle: None)
    before = namespaces()
    with instrument:
        rebound = changed(before, namespaces())
    assert {("nicecf.model", "encode"), ("nicecf.plausibility", "encode"),
            ("nicecf.explainers", "nearest_unlike_neighbor")} <= rebound
    if which == "cli":
        assert {("nicecf.cli", "ae_scorer"), ("nicecf.cli", "split"),
                ("SearchContext", "warm"), ("SubprocessTransport", "request")} <= rebound
    assert changed(before, namespaces()) == set()
    assert [set(ns) for ns in namespaces()] == [set(ns) for ns in before]

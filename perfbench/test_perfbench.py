"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import counts
import run
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1):
    return tr.Span(name, start, end, parent=parent)


# ---------------------------------------------------------------- tracer

def test_self_time_subtracts_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("x", 1.0, 4.0, parent=0),
        span("y", 3.0, 6.0, parent=0),      # overlaps x by 1 s
        span("z", 9.0, 12.0, parent=0),     # runs 2 s past its parent
    ]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_stats_counts_recursion_once():
    spans = [
        span("f", 0.0, 6.0),
        span("f", 1.0, 5.0, parent=0),
        span("g", 2.0, 3.0, parent=1),
    ]
    stats = tr.layer_stats(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["total_s"] == pytest.approx(6.0)
    assert stats["f"]["self_s"] == pytest.approx(2.0 + 3.0)
    assert stats["g"]["total_s"] == pytest.approx(1.0)


def test_covered_time_takes_outermost_named_spans_inside_one_span():
    spans = [
        span("bench.body", 0.0, 10.0),
        span("off", 0.0, 4.0, parent=0),
        span("off", 1.0, 2.0, parent=1),    # nested: not counted again
        span("on", 5.0, 8.0, parent=0),
        span("off", 20.0, 21.0),            # outside the body
    ]
    assert tr.covered_time(spans, {"off"}, 0) == pytest.approx(4.0)
    assert tr.covered_time(spans, {"off", "on"}, 0) == pytest.approx(7.0)


def _fake_library():
    lib = types.ModuleType("fakelib.core")

    def leaf(x):
        return x + 1

    def outer(x):
        return lib.leaf(x) * 2

    for fn in (leaf, outer):
        fn.__module__ = lib.__name__
        setattr(lib, fn.__name__, fn)
    user = types.ModuleType("fakelib.user")
    user.leaf = lib.leaf  # imported by name, as `from .core import leaf`
    return lib, user


def test_instrument_rebinds_importers_and_restores():
    lib, user = _fake_library()
    original = lib.leaf
    tracer = tr.Tracer()
    undo = tr.instrument(tracer, [lib, user])
    assert user.leaf is lib.leaf and lib.leaf is not original
    assert lib.outer(1) == 4 and user.leaf(1) == 2
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("core.outer", -1), ("core.leaf", 0), ("core.leaf", -1)]
    tr.restore(undo)
    assert lib.leaf is original and user.leaf is original


def test_failing_observer_never_breaks_the_call():
    lib, user = _fake_library()

    def broken(tracer, span, args, result):
        raise KeyError("no such field")

    tracer = tr.Tracer(after={"core.leaf": broken})
    undo = tr.instrument(tracer, [lib, user])
    try:
        assert lib.leaf(1) == 2
    finally:
        tr.restore(undo)
    assert tracer.observer_errors == ["core.leaf: KeyError: 'no such field'"]


def test_zero_weight_share_counts_only_marked_on_line_spans():
    spans = [
        span("trainer.online_iteration", 0.0, 10.0),
        span("membank.spread_loss", 1.0, 4.0, parent=0),
        span("losses.cross_entropy", 4.0, 5.0, parent=0),
        span("membank.spread_loss", 20.0, 30.0),   # not in an on-line step
    ]
    spans[1].note["zero_weight"] = True
    spans[3].note["zero_weight"] = True
    assert counts.zero_weight_share(spans) == pytest.approx(0.3)
    assert counts.zero_weight_share(spans[3:]) is None


# ---------------------------------------------------------------- catalogue

def test_absent_names_are_reported_not_raised():
    metrics = [{"name": "graph.reciprocal_sets.self_s", "unit": "s", "better": "lower"},
               {"name": "graph.jaccard_distance.self_s", "unit": "s", "better": "lower"}]
    doc = {"layers": {"graph.jaccard_distance.self_s": 1.5}}
    values, missing = run.collect(doc, metrics, "")
    assert missing == ["graph.reciprocal_sets.self_s"]
    assert values["graph.reciprocal_sets.self_s"] == {"value": 0.0, "unit": "s"}
    assert values["graph.jaccard_distance.self_s"]["value"] == 1.5


def test_every_layer_metric_has_a_prediction():
    doc = json.loads((HERE / "predictions.json").read_text())["layers"]
    workloads = {w["name"] for w in CATALOG["workloads"]}
    e2e = {m["name"] for m in CATALOG["end_to_end"]}
    for metric in CATALOG["per_layer"]:
        assert any(metric["name"].startswith(key + ".") for key in doc), metric["name"]
    for entry in doc.values():
        for side in ("moves", "flat"):
            for workload, names in entry[side].items():
                assert workload in workloads and set(names) <= e2e


# ---------------------------------------------------------------- failures

@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    return workloads


def _patched_panel(workloads, monkeypatch, body):
    monkeypatch.setitem(workloads.WORKLOADS, "panel",
                        dict(workloads.WORKLOADS["panel"], body=body))


def test_failed_body_is_counted_and_stops_the_run(workloads, monkeypatch, tmp_path):
    def diverging(ctx, seed, work):
        raise RuntimeError("training diverged")

    _patched_panel(workloads, monkeypatch, diverging)
    doc = workloads.run_workload("panel", 1, 0.0, 0, True, tmp_path)
    assert doc["failed"] == workloads.MIN_BODY_REPS[0]
    assert doc["attempted"] == workloads.SETUP_REPS["panel"] + workloads.MIN_BODY_REPS[0]
    assert doc["e2e"]["wall_s"] is None


def test_repetitions_that_disagree_fail(workloads, monkeypatch, tmp_path):
    scores = iter([0.5, 0.6])

    def drifting(ctx, seed, work):
        return {"map": next(scores), "fscore": 0.9}

    _patched_panel(workloads, monkeypatch, drifting)
    doc = workloads.run_workload("panel", 1, 0.0, 0, True, tmp_path)
    assert doc["failed"] == 1 and "repetition 1" in doc["errors"][0]


# ---------------------------------------------------------------- smoke runs

def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["panel", "label-5k", "train-long"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_of_each_workload(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CATALOG["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "panel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Tests of the end-to-end benchmark harness, at smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, run
from benchmarks.e2e.metrics import LAYERS, WORKLOADS, driver_metrics, \
    end_to_end_for
from benchmarks.e2e.shims import Shims
from benchmarks.e2e.workloads import OfflineFlow, StreamSlice

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in driver_metrics()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(LAYERS)
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One traced smoke run per workload, each in its own process."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "0", "--trace", "1",
             "--smoke", "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(
            next(out.glob(f"result-{workload}-*.json")).read_text())
        spans = json.loads(
            (out / f"spans-{workload}-s{SEED}.json").read_text())
        line = json.loads(done.stdout.strip().splitlines()[-1])
        runs[workload] = (result, spans, line)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke_runs, workload):
    result, _, line = smoke_runs[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert line == run.driver_line(result)
    untraced = run.driver_line(dict(result, trace=0))
    for section, emitted in (("end_to_end", untraced["metrics"]),
                             ("per_layer", line["metrics"])):
        assert set(emitted) == {m["name"] for m in spec[section]}
        for m in spec[section]:
            assert emitted[m["name"]]["unit"] == m["unit"]
            assert isinstance(emitted[m["name"]]["value"], float)
    for name, m in untraced["metrics"].items():
        assert m["value"] != 0.0, name
    assert set(result["metrics"]) == {
        m.name for m in end_to_end_for(workload)}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_the_traced_wall(smoke_runs, workload):
    result, spans, _ = smoke_runs[workload]
    layers = result["layers"]
    traced = result["traced_wall_s"]
    self_total = sum(layers[f"{layer}_s"]["value"]
                     for layer in Shims().layers)
    # The outermost spans, read back from the span file, cover exactly
    # what the self times attribute.
    roots = sum(end - start for _, start, end, parent in spans["spans"]
                if parent == -1)
    assert self_total == pytest.approx(roots, rel=0.01)
    unattributed = layers["unattributed_pct"]["value"] / 100.0 * traced
    assert self_total + unattributed == pytest.approx(traced, rel=0.01)
    assert layers["unattributed_pct"]["value"] <= run.MAX_UNATTRIBUTED_PCT


def _prepared(cls):
    workload = cls(smoke=True)
    workload.prepare()
    workload.setup(SEED)
    workload.warm_up()
    return workload


@pytest.fixture(scope="module")
def slice_workload():
    return _prepared(StreamSlice)


@pytest.mark.parametrize("cls", [OfflineFlow, StreamSlice])
def test_shim_counts_and_digests_repeat_across_passes(cls,
                                                      slice_workload):
    workload = slice_workload if cls is StreamSlice else _prepared(cls)
    seen = []
    for _ in range(2):
        with Shims() as shims:
            output, _ = workload.run_pass()
        output = workload.finish(output)
        seen.append((shims.calls(), dict(shims.counts),
                     workload.digest(output)))
    assert seen[0] == seen[1]
    assert sum(seen[0][0].values()) > 0


def test_a_removed_shim_target_is_reported_absent(monkeypatch,
                                                  slice_workload):
    import repro.flow.pipeline as pipeline

    workload = slice_workload
    output, steps = workload.run_pass()
    output = workload.finish(output)
    monkeypatch.delattr(pipeline, "compiled_clone")
    monkeypatch.delattr(pipeline, "compute_slice_cost")
    layers, _, _, problems = run.traced_layers(
        workload, workload.digest(output), sum(steps.values()),
        workload.outcomes(output), {}, [])
    assert problems == []
    assert layers["rtl.compiled_clone_s"]["status"] == "absent"
    assert layers["rtl.compiled_clone_calls"] == {
        "value": 0.0, "unit": "count", "status": "absent"}
    assert layers["slicing.slice_s"]["status"] == "partial"
    assert layers["serve.predict_s"]["status"] == "ok"


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict("lower", 0.10, parent,
                           [v * 0.8 for v in parent])[0] == "GAIN"
    assert compare.verdict("lower", 0.10, parent,
                           [v * 1.2 for v in parent])[0] == "REGRESSION"
    assert compare.verdict("lower", 0.10, parent, parent)[0] == "same"
    noisy = [1.0, 1.5] * 5
    assert compare.verdict("lower", 0.10, noisy,
                           [v * 1.05 for v in noisy])[0] == "unresolved"
    assert compare.verdict("higher", 0.10, noisy,
                           [3.0] * 10)[0] == "better"
    assert compare.verdict("higher", None, [5.0] * 10,
                           [5.0 - 1e-3] * 10)[0] == "REGRESSION"
    assert compare.verdict("higher", None, [5.0] * 10,
                           [5.0] * 10) == ("same", 0)

"""Chrome-trace export of captured run directories."""

import json

import pytest

from repro.dvfs import HistoryController
from repro.obs import session
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.runtime import run_episode
from repro.units import DVFS_SWITCH_TIME, MS
from tests.conftest import TASK, FlatEnergyModel, job


def _serve_run(tmp_path):
    """A captured run with spans, sjob events and a time series."""
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="serve test") as obs:
        with obs.span("serve", streams=1):
            pass
        obs.emit("sjob", stream="aes", index=0, status="completed",
                 arrival=0.0, release=0.0, start=0.0, t_slice=0.001,
                 t_switch=0.0, t_exec=0.004, energy=1e-5, missed=False,
                 decision_ms=0.01, batch_size=1)
        obs.emit("sjob", stream="aes", index=1, status="shed",
                 arrival=0.002)
        obs.timeseries.observe("serve.miss", 0.004, 0.0)
        obs.timeseries.observe("serve.energy_per_job", 0.004, 1e-5)
    return run_dir


def test_chrome_trace_structure(tmp_path):
    payload = chrome_trace(_serve_run(tmp_path))
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    # Two clock domains on two trace processes.
    assert {e["pid"] for e in events} == {1, 2}
    slices = [e for e in events if e["ph"] == "X"]
    assert any(e["name"] == "serve" and e["pid"] == 1 for e in slices)
    # The shed job never executed: an instant at its arrival.
    shed = next(e for e in events if e["ph"] == "i")
    assert shed["ts"] == pytest.approx(0.002 * 1e6)
    assert shed["args"]["status"] == "shed"
    # Time-series windows become counter tracks.
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    assert {"miss_rate", "energy_per_job"} <= counter_names


def test_sjob_placement_is_exact_virtual_time(tmp_path):
    payload = chrome_trace(_serve_run(tmp_path))
    sjob = next(e for e in payload["traceEvents"]
                if e["ph"] == "X" and e["pid"] == 2
                and "status" in e.get("args", {}))
    assert sjob["ts"] == pytest.approx(0.0)
    assert sjob["dur"] == pytest.approx(0.005 * 1e6)  # slice+switch+exec


def test_episode_jobs_keep_release_gaps_and_switch_windows(tmp_path,
                                                           asic_levels):
    """An episode's jobs sit at their exact virtual start: a short job
    leaves a gap to the next release, and a switch window widens the
    slice of the job that paid it."""
    light = int(asic_levels.nominal.frequency * 2 * MS)
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="episode"):
        result = run_episode(HistoryController(asic_levels,
                                               DVFS_SWITCH_TIME),
                             [job(i, light) for i in range(3)], TASK,
                             FlatEnergyModel())
    payload = chrome_trace(run_dir)
    track = sorted((e for e in payload["traceEvents"]
                    if e["ph"] == "X" and e["pid"] == 2),
                   key=lambda e: e["ts"])
    outcomes = result.outcomes
    assert any(o.t_switch > 0.0 for o in outcomes)
    assert [e["ts"] for e in track] == pytest.approx(
        [o.start * 1e6 for o in outcomes])
    assert [e["dur"] for e in track] == pytest.approx(
        [(o.finish - o.start) * 1e6 for o in outcomes])
    assert track[1]["ts"] == pytest.approx(TASK.deadline * 1e6)
    assert track[1]["ts"] > track[0]["ts"] + track[0]["dur"]


def test_write_and_reload(tmp_path):
    run_dir = _serve_run(tmp_path)
    out = write_chrome_trace(run_dir, tmp_path / "trace.json")
    payload = json.loads(out.read_text())  # strict JSON on disk
    assert validate_chrome_trace(payload) == []
    assert payload["otherData"]["command"] == "serve test"
    assert payload["displayTimeUnit"] == "ms"


def test_validate_flags_problems():
    assert validate_chrome_trace({}) == \
        ["traceEvents is missing or not a list"]
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "X", "name": "a", "pid": 1, "ts": 0, "dur": -1},
        {"name": "b"},
        "nope",
    ]})
    assert any("negative duration" in p for p in problems)
    assert any("lacks 'ph'" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        chrome_trace(tmp_path)

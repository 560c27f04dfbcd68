"""JSONL round-trip, sessions/manifests, and instrumented runs."""

import json

import pytest

from repro.dvfs import (
    ASIC_VOLTAGES,
    AsicVfModel,
    ConstantFrequencyController,
    JobActivity,
    PidController,
    PidGains,
    PredictiveController,
    build_level_table,
)
from repro.obs import (
    EVENTS_NAME,
    EventSink,
    MANIFEST_NAME,
    get_observer,
    read_events,
    session,
)
from repro.obs.report import format_stage_table, render_run
from repro.runtime import JobRecord, Task, run_episode
from repro.units import DVFS_SWITCH_TIME, MHZ, MS


class FlatEnergyModel:
    """Trivial energy model for episode fixtures."""

    v_nominal = 1.0

    def job_energy(self, activity, point, duration):
        """Energy proportional to cycles and V^2."""
        return activity.cycles * 1e-9 * point.voltage ** 2


@pytest.fixture(scope="module")
def levels():
    return build_level_table(AsicVfModel.characterize(200 * MHZ),
                             ASIC_VOLTAGES)


def _job(index, cycles, predicted=None):
    return JobRecord(index=index, actual_cycles=cycles,
                     activity=JobActivity(cycles=cycles),
                     predicted_cycles=predicted)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [
        {"type": "job", "index": 0, "missed": False, "slack": 1.5},
        {"type": "job", "index": 1, "missed": True, "slack": -0.25,
         "note": "unicode ✓"},
        {"type": "episode", "n_jobs": 2},
    ]
    with EventSink(path) as sink:
        for event in events:
            sink.emit(event)
        # Emitting after close is a silent no-op, not a crash.
    sink.emit({"type": "late"})
    loaded = read_events(path)
    assert len(loaded) == 3
    for original, parsed in zip(events, loaded):
        for key, value in original.items():
            assert parsed[key] == value
        assert "ts" in parsed


def test_session_writes_manifest_and_events(tmp_path):
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="unit test",
                 config={"scale": 0.05}) as obs:
        assert get_observer() is obs
        with obs.span("stage_a", design="aes"):
            obs.metrics.inc("things")
        obs.emit("custom", value=7)
    assert get_observer() is None  # uninstalled on exit

    manifest = json.loads((run_dir / MANIFEST_NAME).read_text())
    assert manifest["command"] == "unit test"
    assert manifest["config"] == {"scale": 0.05}
    assert manifest["n_events"] == 1
    assert manifest["duration_s"] >= 0.0
    assert [s["name"] for s in manifest["stages"]] == ["stage_a"]
    assert manifest["stages"][0]["labels"] == {"design": "aes"}
    assert manifest["metrics"]["counters"]["things"] == 1.0
    events = read_events(run_dir / EVENTS_NAME)
    assert events[0]["type"] == "custom" and events[0]["value"] == 7


def test_session_without_run_dir_collects_but_writes_nothing(tmp_path):
    with session(command="ephemeral") as obs:
        with obs.span("x"):
            pass
        obs.emit("dropped", a=1)  # no sink: silently discarded
    assert obs.finish() is None
    assert list(tmp_path.iterdir()) == []
    assert [s.name for s in obs.tracer.spans] == ["x"]


def test_run_episode_emits_per_job_events(tmp_path, levels):
    frequency = levels.nominal.frequency
    over = int(frequency * 12 * MS)   # overruns a 10 ms deadline
    small = int(frequency * 1 * MS)
    task = Task("cam", deadline=10 * MS)
    run_dir = tmp_path / "ep"
    with session(run_dir=run_dir, command="episode") as obs:
        run_episode(ConstantFrequencyController(levels),
                    [_job(0, over, predicted=float(over)),
                     _job(1, small)],
                    task, FlatEnergyModel())
    events = read_events(run_dir / EVENTS_NAME)
    jobs = [e for e in events if e["type"] == "sjob"]
    streams = [e for e in events if e["type"] == "stream"]
    assert len(jobs) == 2 and len(streams) == 1
    first, second = jobs
    assert first["missed"] is True and first["slack"] < 0
    assert first["predicted_cycles"] == float(over)
    assert first["actual_cycles"] == over
    assert first["voltage"] == levels.nominal.voltage
    assert second["missed"] is False
    assert (streams[0]["scheme"], streams[0]["stream"]) == ("baseline",
                                                           "cam")
    assert streams[0]["n_completed"] == 2 and streams[0]["misses"] == 1
    assert obs.metrics.counters["serve.completed"] == 2.0
    assert obs.metrics.histograms["serve.slack_ms"].count == 2
    assert not any(name.startswith("episode.")
                   for name in obs.metrics.counters)


def test_render_run_full_report(tmp_path, levels):
    frequency = levels.nominal.frequency
    task = Task("cam", deadline=10 * MS)
    jobs = [_job(i, int(frequency * 2 * MS)) for i in range(4)]
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="experiment figX",
                 config={"scale": 0.05}) as obs:
        with obs.span("bundle", benchmark="aes"):
            with obs.span("fit", benchmark="aes"):
                pass
        run_episode(ConstantFrequencyController(levels), jobs, task,
                    FlatEnergyModel())
    text = render_run(run_dir)
    assert "experiment figX" in text
    assert "scale=0.05" in text
    assert "bundle" in text and "fit" in text
    assert "baseline on cam: 4 jobs, 0 missed" in text
    assert "slack" in text  # the sparkline line


def test_report_states_prediction_error_only_where_planned_on(tmp_path,
                                                            levels):
    """Every record carries an offline prediction, 20% high, but only
    the prediction scheme plans on it: baseline and pid never read
    it, so their digest lines state no prediction error."""
    frequency = levels.nominal.frequency
    cycles = int(frequency * 2 * MS)
    jobs = [_job(i, cycles, predicted=1.2 * cycles) for i in range(4)]
    task = Task("cam", deadline=10 * MS)
    controllers = (
        ConstantFrequencyController(levels),
        PidController(levels, DVFS_SWITCH_TIME, gains=PidGains(0.4, 0.1,
                                                               0.05)),
        PredictiveController(levels, DVFS_SWITCH_TIME,
                             charge_overheads=False))
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="experiment figX"):
        for controller in controllers:
            run_episode(controller, jobs, task, FlatEnergyModel())
    lines = {line.split(" on ")[0].strip(): line
             for line in render_run(run_dir).splitlines()
             if " on cam: " in line}
    assert set(lines) == {"baseline", "pid", "prediction_no_overhead"}
    assert "mean |err|" not in lines["baseline"]
    assert "mean |err|" not in lines["pid"]
    assert lines["prediction_no_overhead"].endswith("mean |err| 20.00%")


def test_format_stage_table_empty():
    assert "no spans" in format_stage_table([])

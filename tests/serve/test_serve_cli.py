"""The ``repro serve`` subcommand, invoked in-process."""

import json
import re

import pytest

from repro.cli import main


@pytest.fixture
def cjpeg(shared_bundle):
    """Prewarm the bundle the CLI will look up (scale 0.05)."""
    return shared_bundle("cjpeg", 0.05)


def test_serve_virtual_ok(cjpeg, capsys):
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "25",
                 "--rate", "400", "--virtual", "--predictor", "record",
                 "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "cjpeg/prediction [open]: 25 offered" in out
    assert "serve: ok" in out


def test_serve_realtime_smoke(cjpeg, capsys):
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "10",
                 "--rate", "200", "--predictor", "record"]) == 0
    assert "serve: ok" in capsys.readouterr().out


def test_serve_burst_and_scheme(cjpeg, capsys):
    assert main(["serve", "--benchmark", "cjpeg", "--duration", "0.5",
                 "--rate", "100", "--virtual", "--arrival", "burst",
                 "--scheme", "prediction_boost",
                 "--predictor", "record"]) == 0
    assert "cjpeg/prediction_boost" in capsys.readouterr().out


def test_serve_unknown_benchmark_exits_2(capsys):
    assert main(["serve", "--benchmark", "nope", "--jobs", "1"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_serve_unknown_scheme_exits_2(capsys):
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "1",
                 "--scheme", "warp"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_serve_slo_pass_and_exhausted_exit_codes(cjpeg, capsys):
    # A generous objective at a modest rate passes; an absurd one
    # (zero-tolerance decision latency) exhausts its budget -> exit 3.
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "20",
                 "--rate", "300", "--virtual", "--predictor", "record",
                 "--slo", "p99_decision_ms<1e4"]) == 0
    out = capsys.readouterr().out
    assert "slo p99_decision_ms<10000@99%" in out and "ok" in out
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "20",
                 "--rate", "300", "--virtual", "--predictor", "record",
                 "--slo", "p99_decision_ms<=0"]) == 3
    out = capsys.readouterr().out
    assert "EXHAUSTED" in out and "slo budget exhausted" in out


def test_serve_bad_slo_spec_exits_2(capsys):
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "1",
                 "--slo", "warp_speed<1"]) == 2
    assert "unknown SLO signal" in capsys.readouterr().err


def test_serve_slo_run_dir_artifacts_and_trace(cjpeg, tmp_path, capsys):
    run_dir = tmp_path / "run"
    trace = tmp_path / "trace.json"
    code = main(["serve", "--benchmark", "cjpeg", "--jobs", "20",
                 "--rate", "300", "--virtual", "--predictor", "record",
                 "--slo", "miss_rate<=100%", "--slo-window-ms", "20",
                 "--run-dir", str(run_dir)])
    assert code == 0
    capsys.readouterr()
    # The windowed registry persisted and is named by the manifest.
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["timeseries_file"] == "timeseries.json"
    timeseries = json.loads((run_dir / "timeseries.json").read_text())
    assert timeseries["window_s"] == pytest.approx(0.02)
    assert "serve.miss" in timeseries["series"]
    # Burn-rate accounting landed in the manifest.
    (row,) = manifest["slo"]
    assert row["spec"] == "miss_rate<=1@99%"
    assert row["windows"] > 0 and row["burn_rate"] == 0.0
    assert row["exhausted"] is False
    # The run dir renders with the windowed dashboard...
    assert main(["report", str(run_dir),
                 "--export-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "serve (windows of 20 ms, virtual clock):" in out
    assert "slo miss_rate<=1@99%" in out
    # ...exports a loadable Chrome trace...
    from repro.obs.export import validate_chrome_trace
    payload = json.loads(trace.read_text())
    assert validate_chrome_trace(payload) == []
    assert any(e.get("ph") == "C" for e in payload["traceEvents"])
    # ...and passes the artifact audit (sjob conservation included).
    assert main(["check", str(run_dir)]) == 0
    assert "clean" in capsys.readouterr().out


def test_serve_fleet_smoke(cjpeg, capsys):
    assert main(["serve", "--fleet", "2", "--benchmark", "cjpeg",
                 "--jobs", "40", "--rate", "400", "--virtual",
                 "--policy", "least_loaded",
                 "--tenants", "gold:rate=300:burst=20,free",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "fleet[least_loaded] x2: 40 offered" in out
    assert "tenant gold:" in out and "tenant free:" in out
    assert "serve: ok" in out


def test_serve_fleet_counters_survive_workers(cjpeg, capsys, monkeypatch):
    # serve_fleet runs serially below two usable cores per shard; claim
    # four, so the two shards really run in two forked workers.
    monkeypatch.setattr("repro.serve.fleet.usable_cores", lambda: 4)
    assert main(["serve", "--fleet", "2", "--benchmark", "cjpeg",
                 "--jobs", "30", "--rate", "400", "--virtual",
                 "--policy", "round_robin", "--workers", "2",
                 "--profile", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    # The fleet's map is the run's last, so its worker count is the
    # footer's.
    assert re.search(r"^  pool: \d+ tasks over \d+ map\(s\), "
                     r"2 worker\(s\)", out, re.MULTILINE), out
    # Shard-side serve.* counters reached the parent registry through
    # the pool snapshot ship-back — nothing dropped.
    assert "fleet counters: offered=30" in out
    assert "dropped=0" in out


def test_serve_fleet_applies_backend(tmp_path, capsys):
    # Regression: the fleet path used to drop --backend, so the cold
    # bundle build behind it always ran the default kernel.
    from repro.experiments import clear_bundle_cache
    from repro.rtl import set_default_backend

    run_dir = tmp_path / "run"
    clear_bundle_cache()
    try:
        assert main(["serve", "--fleet", "2", "--benchmark", "cjpeg",
                     "--jobs", "10", "--rate", "400", "--virtual",
                     "--backend", "interp",
                     "--run-dir", str(run_dir)]) == 0
    finally:
        set_default_backend(None)  # --backend installs a global default
        clear_bundle_cache()
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["metrics"]["counters"].get("sim.interp.runs", 0) > 0


def test_serve_fleet_too_small_exits_2(capsys):
    assert main(["serve", "--fleet", "1", "--benchmark", "cjpeg",
                 "aes", "--jobs", "5"]) == 2
    assert "cannot cover" in capsys.readouterr().err


def test_serve_fleet_bad_tenants_exits_2(capsys):
    assert main(["serve", "--fleet", "2", "--benchmark", "cjpeg",
                 "--jobs", "5", "--tenants", "a,a"]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_serve_fleet_bad_policy_exits_2(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--fleet", "2", "--benchmark", "cjpeg",
              "--jobs", "5", "--policy", "warp"])


@pytest.fixture
def aes(shared_bundle):
    """Prewarm the aes bundle the CLI will look up (scale 0.05)."""
    return shared_bundle("aes", 0.05)


AES_STREAM = ["serve", "--benchmark", "aes", "--jobs", "40", "--rate",
              "60", "--virtual", "--predictor", "record", "--scale",
              "0.05", "--seed", "1"]


@pytest.mark.parametrize("flag,value,field", [
    ("--prediction-budget-ms", "-1", "prediction_budget"),
    ("--deadline-ms", "nan", "deadline"),
])
def test_serve_bad_config_value_exits_2(aes, capsys, flag, value, field):
    """Values that used to corrupt a run silently (every job falling
    back, or no misses reported) stop the run, naming the field."""
    assert main(AES_STREAM + [flag, value]) == 2
    assert f"{field} must be" in capsys.readouterr().err


def test_serve_fleet_bad_deadline_exits_2(aes, capsys):
    assert main(["serve", "--fleet", "2", "--benchmark", "aes",
                 "--jobs", "20", "--rate", "200", "--virtual",
                 "--scale", "0.05", "--deadline-ms", "nan"]) == 2
    assert "deadline must be" in capsys.readouterr().err


def test_serve_fleet_non_finite_tenant_limit_exits_2(capsys):
    """A NaN burst used to shed every job at the dispatcher and still
    print ``serve: ok``."""
    assert main(["serve", "--fleet", "2", "--benchmark", "aes",
                 "--jobs", "100", "--rate", "200", "--virtual",
                 "--scale", "0.05", "--seed", "1",
                 "--tenants", "a:rate=10:burst=nan"]) == 2
    assert "burst must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("pool", [[], ["--fleet", "2"]],
                         ids=["streams", "fleet"])
@pytest.mark.parametrize("flags,message", [
    (["--rate", "0", "--jobs", "10"], "rate must be"),
    (["--rate", "-5", "--jobs", "10"], "rate must be"),
    (["--arrival", "burst", "--rate", "0", "--jobs", "10"],
     "rate must be"),
    (["--rate", "nan", "--jobs", "10"], "rate must be"),
    (["--rate", "inf", "--jobs", "10"], "rate must be"),
    (["--jobs", "0"], "n_jobs must be"),
    (["--jobs", "-3"], "n_jobs must be"),
    (["--duration", "-1"], "duration must be"),
])
def test_serve_bad_arrival_flags_exit_2(cjpeg, capsys, pool, flags,
                                        message):
    """Bad arrival flags used to crash with a traceback, or serve NaN,
    stacked or phantom arrivals and still print ``serve: ok``."""
    assert main(["serve", "--benchmark", "cjpeg", "--virtual",
                 "--predictor", "record", "--scale", "0.05"]
                + pool + flags) == 2
    assert message in capsys.readouterr().err


def test_serve_unknown_backend_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--benchmark", "cjpeg", "--jobs", "1",
              "--backend", "batch"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'batch'" in capsys.readouterr().err


def test_report_export_trace_requires_run_dir(capsys):
    assert main(["report", "--export-trace", "out.json"]) == 2
    assert "needs a captured run" in capsys.readouterr().err


def test_serve_run_dir_captures_metrics(cjpeg, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "15",
                 "--rate", "300", "--virtual", "--predictor", "record",
                 "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    counters = manifest["metrics"]["counters"]
    assert counters["serve.offered"] == 15
    assert (counters.get("serve.completed", 0)
            + counters.get("serve.fallback", 0)
            + counters.get("serve.shed", 0)) == 15
    assert "serve.decision_ms" in manifest["metrics"]["histograms"]
    # And the rendered report carries the serving digest.
    assert main(["report", str(run_dir)]) == 0
    assert "serve: 15 offered" in capsys.readouterr().out


def test_serve_live_slice_counts_one_predictor_run_per_job(
        cjpeg, tmp_path, capsys):
    """A live-slice stream takes the scalar machine only, so a virtual
    stream with no sheds runs the predictor once per offered job and
    plans no epoch; the report line shows the runs next to the epoch
    counters."""
    run_dir = tmp_path / "run"
    assert main(["serve", "--benchmark", "cjpeg", "--jobs", "60",
                 "--rate", "60", "--virtual", "--seed", "1",
                 "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    counters = manifest["metrics"]["counters"]
    assert counters.get("serve.shed", 0) == 0
    assert counters["serve.predict_runs"] == counters["serve.offered"] \
        == 60
    assert counters.get("serve.epochs", 0) == 0
    assert main(["report", str(run_dir)]) == 0
    assert ("60 predictor run(s), 0 epoch(s) over 0 job(s)"
            in capsys.readouterr().out)

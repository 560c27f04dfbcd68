"""CLI tests (invoking main() in-process)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "h264" in out and "fig11" in out and "case-study" in out


def test_describe(capsys):
    assert main(["describe", "sha", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "design sha" in out
    assert "FSMs detected" in out
    assert "counters detected" in out
    assert "candidate features" in out
    assert "sampled 2 jobs" in out


def test_describe_no_jobs(capsys):
    assert main(["describe", "stencil", "--jobs", "0"]) == 0
    assert "sampled" not in capsys.readouterr().out


def test_experiment_table3(capsys):
    assert main(["experiment", "table3", "--scale", "0.1"]) == 0
    assert "Decode one frame" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    """An unknown id exits 2 and lists every valid id (no traceback)."""
    assert main(["experiment", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "valid ids" in err
    for exp_id in ("table3", "fig11", "case-study"):
        assert exp_id in err


def test_experiment_run_dir_writes_artifacts(tmp_path, capsys):
    """--run-dir produces a parseable manifest and events file."""
    import subprocess

    from repro.obs import read_events

    run_dir = tmp_path / "run"
    assert main(["experiment", "table3", "--scale", "0.05",
                 "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "stage timings" in out
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "experiment table3"
    assert manifest["config"]["scale"] == 0.05
    assert manifest["duration_s"] > 0
    # The checkout's own HEAD; "unknown" only outside a git checkout.
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=Path(__file__).resolve().parent,
                              capture_output=True, text=True)
        rev = head.stdout.strip() if head.returncode == 0 else "unknown"
    except OSError:
        rev = "unknown"
    assert manifest["git_rev"] == rev
    assert len(read_events(run_dir / "events.jsonl")) \
        == manifest["n_events"]


def test_report_renders_run_dir(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["experiment", "table3", "--scale", "0.05",
                 "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "run: experiment table3" in out
    assert "git rev" in out
    assert "stage timings:" in out


def test_verilog_stdout(capsys):
    assert main(["verilog", "aes"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("// generated by")
    assert "module aes (" in out


def test_verilog_to_file(tmp_path, capsys):
    target = tmp_path / "md.v"
    assert main(["verilog", "md", "-o", str(target)]) == 0
    assert "module md (" in target.read_text()


def test_predict(capsys):
    assert main(["predict", "sha", "--scale", "0.1", "--show", "3"]) == 0
    out = capsys.readouterr().out
    assert "selected; slice area" in out
    assert "predicted" in out


def test_ablation_runs_as_an_experiment_with_a_run_dir(tmp_path, capsys):
    """A pinned ablation is a command: it prints its sweep and writes
    the run's manifest."""
    run_dir = tmp_path / "run"
    assert main(["experiment", "ablation-alpha", "--scale", "0.05",
                 "--run-dir", str(run_dir)]) == 0
    assert "alpha  under%  miss%  energy%" in capsys.readouterr().out
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "experiment ablation-alpha"
    assert manifest["config"]["scale"] == 0.05


def test_every_registered_experiment_resolves():
    """Each row's module runs and prints, and the rows print exactly
    the pinned files, one row per file: fig19 is fig18's row."""
    import importlib
    ids_by_stem = {}
    for exp_id, row in EXPERIMENTS.items():
        module = importlib.import_module(f"repro.experiments.{row.module}")
        assert hasattr(module, "run") and hasattr(module, "to_text")
        ids_by_stem.setdefault(row.stem, []).append(exp_id)
    golden = Path(__file__).parent / "golden" / "figures"
    assert set(ids_by_stem) == {path.stem for path in golden.glob("*.txt")}
    assert {stem: ids for stem, ids in ids_by_stem.items()
            if len(ids) > 1} == {"fig18_19": ["fig18", "fig19"]}
    assert EXPERIMENTS["fig19"] is EXPERIMENTS["fig18"]


def test_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["describe", "npu"])


def test_report_subset(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "-o", str(target), "--scale", "0.1",
                 "--only", "table3", "table4"]) == 0
    text = target.read_text()
    assert text.startswith("# Reproduction report")
    assert "## table3" in text and "## table4" in text


def test_report_skips_unknown(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "-o", str(target), "--scale", "0.1",
                 "--only", "nope"]) == 0
    assert "skipping unknown" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed-list", "--train-jobs",
                                  "--test-jobs"])
def test_conform_rejects_removed_flags(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["conform", flag, "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["experiment", "table3"], ["predict", "aes"], ["check"],
    ["serve", "--benchmark", "aes"], ["report"]])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_every_scale_flag_rejects_a_bad_value(command, value, capsys):
    """A zero or negative ``--scale`` ran floor-sized workloads and
    exited 0; NaN and infinity exited 1 with a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--scale", value])
    assert excinfo.value.code == 2
    assert "scale must be finite and > 0" in capsys.readouterr().err


def test_lint_clean_design(capsys):
    assert main(["lint", "aes"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out or "wide-dynamic-share" in out


def test_lint_design_with_info_findings(capsys):
    assert main(["lint", "djpeg"]) == 0  # info findings, no errors
    assert "wide-dynamic-share" in capsys.readouterr().out


def test_wave_command(tmp_path, capsys):
    target = tmp_path / "job.vcd"
    assert main(["wave", "sha", "-o", str(target)]) == 0
    text = target.read_text()
    assert "$enddefinitions $end" in text
    assert "$dumpvars" in text

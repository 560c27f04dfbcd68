"""``repro check`` CLI tests: artifact audits and fresh-run goldens."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.dvfs import HistoryController
from repro.rtl import BACKENDS
from repro.obs import session
from repro.runtime import run_episode
from repro.units import DVFS_SWITCH_TIME, MS

from .conftest import TASK, job

#: The goldens committed with the repository (diffed in CI).
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _captured_run(tmp_path, levels, model):
    """Record one instrumented episode into a run directory."""
    run_dir = tmp_path / "run"
    light = int(levels.nominal.frequency * 2 * MS)
    heavy = int(levels.nominal.frequency * 8 * MS)
    jobs = [job(i, heavy if i % 4 == 3 else light) for i in range(8)]
    with session(run_dir=run_dir, command="test check"):
        run_episode(HistoryController(levels, DVFS_SWITCH_TIME), jobs,
                    TASK, model)
    return run_dir


def _corrupt_first_job_event(run_dir, **changes):
    events_path = run_dir / "events.jsonl"
    lines = events_path.read_text().splitlines()
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("type") == "sjob":
            event.update(changes)
            lines[i] = json.dumps(event)
            break
    events_path.write_text("\n".join(lines) + "\n")


def test_artifact_audit_clean_run(tmp_path, capsys, levels, model):
    run_dir = _captured_run(tmp_path, levels, model)
    assert main(["check", str(run_dir)]) == 0
    assert "clean" in capsys.readouterr().out


def test_artifact_audit_flags_tampered_energy(tmp_path, capsys, levels,
                                              model):
    run_dir = _captured_run(tmp_path, levels, model)
    events = [json.loads(line) for line in
              (run_dir / "events.jsonl").read_text().splitlines()]
    first_job = next(e for e in events if e["type"] == "sjob")
    _corrupt_first_job_event(run_dir, energy=first_job["energy"] * 2)
    assert main(["check", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out and "energy" in out


def test_artifact_audit_flags_slack_miss_contradiction(tmp_path, capsys,
                                                       levels, model):
    run_dir = _captured_run(tmp_path, levels, model)
    # An on-time job (positive slack) suddenly claims it missed: both
    # the per-job check and the stream-summary miss count must fire.
    _corrupt_first_job_event(run_dir, missed=True)
    assert main(["check", str(run_dir)]) == 1
    assert "missed" in capsys.readouterr().out


def test_artifact_audit_missing_dir_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope")]) == 2
    assert "manifest" in capsys.readouterr().err


def test_artifact_audit_torn_manifest(tmp_path, capsys):
    run_dir = tmp_path / "torn"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("{\"command\": ")
    assert main(["check", str(run_dir)]) == 1
    assert "does not parse" in capsys.readouterr().out


def test_fresh_check_rejects_unknown_names(capsys):
    assert main(["check", "--benchmarks", "npu"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    assert main(["check", "--benchmarks", "aes",
                 "--schemes", "psychic"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_fresh_check_golden_update_then_match_then_drift(tmp_path,
                                                         capsys):
    base = ["check", "--benchmarks", "aes", "--scale", "0.05",
            "--schemes", "baseline", "history", "oracle",
            "--golden-dir", str(tmp_path)]
    assert main(base + ["--update-golden"]) == 0
    golden = tmp_path / "aes_asic.json"
    assert golden.is_file()
    capsys.readouterr()

    assert main(base) == 0
    assert "golden match" in capsys.readouterr().out

    payload = json.loads(golden.read_text())
    payload["episodes"]["baseline"]["total_energy"] *= 1.01
    golden.write_text(json.dumps(payload))
    assert main(base) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_fresh_check_missing_golden_is_a_failure(tmp_path, capsys):
    assert main(["check", "--benchmarks", "aes", "--scale", "0.05",
                 "--schemes", "baseline",
                 "--golden-dir", str(tmp_path / "empty")]) == 1
    assert "no golden" in capsys.readouterr().out


def test_committed_goldens_match_a_fresh_run(capsys):
    """The acceptance gate in miniature: every scheme of one real
    benchmark re-runs violation-free, matches the committed golden,
    and the checker still catches all seeded bugs."""
    assert main(["check", "--benchmarks", "aes", "--scale", "0.05",
                 "--golden-dir", str(GOLDEN_DIR), "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    assert "golden match" in out
    assert "smoke ok" in out


@pytest.mark.parametrize("backend", BACKENDS)
def test_committed_goldens_match_under_every_backend(backend, capsys):
    """Backend-equivalence gate: the committed goldens predate the
    stepjit backend, so a golden match under each
    ``--backend`` proves episodes, energy and misses are
    backend-invariant end to end."""
    from repro.rtl import set_default_backend

    try:
        assert main(["check", "--benchmarks", "aes", "--scale", "0.05",
                     "--backend", backend,
                     "--golden-dir", str(GOLDEN_DIR)]) == 0
    finally:
        set_default_backend(None)  # --backend installs a global default
    assert "golden match" in capsys.readouterr().out

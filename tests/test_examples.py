"""Smoke tests: every example script runs end to end.

Examples are user-facing documentation; a stale one is worse than no
example.  Each runs in a subprocess with a small workload scale.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 420) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
        env={"PATH": "/usr/bin:/bin", "REPRO_SCALE": "0.1",
             "PYTHONPATH": str(EXAMPLES.parent / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "offline flow for cjpeg" in out
    assert "features selected by Lasso" in out
    assert "online prediction" in out


def test_video_player():
    out = run_example("video_player.py")
    assert "baseline" in out and "prediction" in out
    assert "per-frame timeline" in out
    assert "saved" in out


def test_custom_accelerator():
    out = run_example("custom_accelerator.py")
    assert "never-seen accelerator" in out
    assert "prediction error over" in out
    assert "predictive DVFS:" in out


def test_software_predictor():
    out = run_example("software_predictor.py")
    assert "sliced C program" in out
    assert "hw slice pred" in out

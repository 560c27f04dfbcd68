"""The strict fig11 gate: exact work counts of a cold CLI run.

``REPRO_CHECK=strict repro experiment fig11 --scale 0.05`` runs the
offline flow for all seven accelerators and replays 21 episodes
(3 schemes x 7 designs) through the invariant checker.  Every count
pinned here is host-independent work, so it holds on any machine:

* one Lasso solve per gamma point, one refit per distinct selection,
  then the final solve and refit — 110 over the seven flows (FISTA
  iteration totals shift with the BLAS build and stay unpinned);
* three stepjit programs per design (record stage, test records,
  slice), so a program-cache key that misses shows up as extra
  compiles, and the simulated cycles and fast-forward jumps;
* 21 checked episodes over 270 jobs with no violation, and the runs
  the block planner committed inside them.

The run happens in a subprocess so that every program cache starts
cold, as it does for a user's CLI call.  A change that moves a count
has changed the work done and must re-pin it, saying why.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.fig11_schemes import SCHEMES

SRC = Path(__file__).resolve().parents[2] / "src"

COUNTS = {
    "flow.fit.solves": 110,
    "sim.stepjit.compiles": 21,
    "sim.stepjit.runs": 246,
    "sim.stepjit.cycles": 345_558_455,
    "sim.stepjit.ff_jumps": 32_893,
    "check.episodes": 21,
    "check.jobs": 270,
    "serve.epochs": 14,
    "serve.epoch_jobs": 180,
}


def _repro(*args, **env):
    """Run ``python -m repro`` on this checkout with no ``REPRO_*``
    settings but ``env``."""
    base = {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], capture_output=True,
        text=True, timeout=600,
        env={**base, "PYTHONPATH": str(SRC), **env})


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("fig11")
    result = _repro("experiment", "fig11", "--scale", "0.05",
                    "--run-dir", str(run_dir), REPRO_CHECK="strict")
    assert result.returncode == 0, result.stderr[-2000:]
    return run_dir


def test_work_counts_are_exact(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    counters = manifest["metrics"]["counters"]
    assert {name: int(counters.get(name, 0)) for name in COUNTS} \
        == COUNTS
    assert "check.violations" not in counters


def test_run_dir_audit_is_clean(run_dir):
    result = _repro("check", str(run_dir))
    assert result.returncode == 0, result.stdout[-2000:]
    assert "clean" in result.stdout


def test_report_digests_every_episode(run_dir):
    result = _repro("report", str(run_dir))
    assert result.returncode == 0, result.stderr[-2000:]
    digests = re.findall(r"^  (\w+) on (\w+): (\d+) jobs, \d+ missed, ",
                         result.stdout, re.MULTILINE)
    assert len(digests) == COUNTS["check.episodes"]
    assert {scheme for scheme, _, _ in digests} == set(SCHEMES)
    assert sum(int(n) for _, _, n in digests) == COUNTS["check.jobs"]

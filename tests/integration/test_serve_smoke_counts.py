"""The serve smokes: exact work counts of virtual CLI runs, and one
realtime run.

The virtual runs serve on the virtual clock, so every count pinned
here is host-independent work:

* **record replay** — h264 at Poisson 30 jobs/s, 2,000 jobs, seed 1:
  the block planner commits 417 runs over 1,259 jobs, and the scalar
  machine replays the other 741 predictions;
* **live slice** — cjpeg at Poisson 60 jobs/s, 300 jobs, seed 1: a
  live slice has to run, so the scalar machine serves every job, no
  run is planned, and the slice runs once per job;
* **fleet gate** — a 4-shard cjpeg/aes fleet at 400 jobs/s, 400 jobs,
  seed 7, with a rate-limited ``gold`` tenant and a global queue of 8,
  under each routing policy: ``least_loaded`` routes 310 and sheds 86
  on the rate limit and 4 at admission; ``deadline`` routes 300 and
  sheds 86 on the rate limit and 14 it cannot finish in time.

The **realtime** run paces cjpeg arrivals at 100 jobs/s for 2 s
against the wall clock, so its job count depends on the host; it
pins only that jobs were offered and each ended in one terminal state.

Each run happens in a subprocess, as a user's CLI call does.  A change
that moves the split between planned runs and the scalar machine has
changed the work done and must re-pin these counts, saying why.
"""

import json

import pytest

from tests.integration.test_fig11_strict_gate import _repro


def _serve_counters(tmp_path, *args):
    """Counters of one ``repro serve`` run."""
    run_dir = tmp_path / "run"
    result = _repro("serve", *args, "--run-dir", str(run_dir))
    assert result.returncode == 0, result.stderr[-2000:]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return manifest["metrics"]["counters"]


def _conserved(counters):
    """completed + fallback + shed, the terminal states of every
    offered job."""
    return sum(counters.get(f"serve.{state}", 0)
               for state in ("completed", "fallback", "shed"))


@pytest.mark.parametrize("args,counts", [
    (("--benchmark", "h264", "--predictor", "record", "--rate", "30",
      "--jobs", "2000", "--seed", "1"),
     {"serve.offered": 2000, "serve.epochs": 417,
      "serve.epoch_jobs": 1259, "serve.predict_runs": 741}),
    (("--benchmark", "cjpeg", "--rate", "60", "--jobs", "300",
      "--seed", "1"),
     {"serve.offered": 300, "serve.epochs": 0,
      "serve.predict_runs": 300}),
], ids=["record_replay", "live_slice"])
def test_serve_smoke_counts_are_exact(tmp_path, args, counts):
    counters = _serve_counters(tmp_path, *args, "--virtual")
    assert {name: int(counters.get(name, 0)) for name in counts} \
        == counts
    assert _conserved(counters) == counts["serve.offered"]


def test_realtime_serve_smoke_conserves_every_job(tmp_path):
    counters = _serve_counters(
        tmp_path, "--benchmark", "cjpeg", "--rate", "100", "--duration",
        "2", "--scale", "0.05", "--seed", "1")
    assert counters["serve.offered"] > 0
    assert _conserved(counters) == counters["serve.offered"]


#: Routing runs on the virtual clock, so these counts hold on any
#: host; a change that moves one has changed routing.
FLEET_ARGS = ("--fleet", "4", "--benchmark", "cjpeg", "aes", "--jobs",
              "400", "--rate", "400", "--tenants",
              "gold:rate=100:burst=10,free", "--global-depth", "8",
              "--scale", "0.05", "--seed", "7", "--workers", "1")
SHEDS = ("admission", "rate_limit", "deadline")


@pytest.mark.parametrize("policy,counts", [
    ("least_loaded", {"serve.fleet.routed": 310,
                      "serve.fleet.shed.rate_limit": 86,
                      "serve.fleet.shed.admission": 4,
                      "serve.fleet.shed.deadline": 0}),
    ("deadline", {"serve.fleet.routed": 300,
                  "serve.fleet.shed.rate_limit": 86,
                  "serve.fleet.shed.admission": 0,
                  "serve.fleet.shed.deadline": 14}),
], ids=["least_loaded", "deadline"])
def test_fleet_gate_counts_are_exact(tmp_path, policy, counts):
    counters = _serve_counters(tmp_path, *FLEET_ARGS, "--policy", policy,
                               "--virtual")
    expected = {"serve.fleet.offered": 400, **counts}
    assert {name: int(counters.get(name, 0)) for name in expected} \
        == expected
    # Every offered job is routed or shed, and every routed one served.
    assert counts["serve.fleet.routed"] + sum(
        counts[f"serve.fleet.shed.{reason}"] for reason in SHEDS) == 400
    assert _conserved(counters) == counters["serve.offered"] \
        == counts["serve.fleet.routed"]

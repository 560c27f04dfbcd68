"""The ASIC golden gate: every accelerator against its committed golden.

``repro check --scale 0.05 --golden-dir tests/golden --smoke`` runs the
offline flow for all seven accelerators, replays every scheme's episode
through the invariant checker, compares each against its committed
golden (trained model, energy, misses, per-job outcomes) and confirms
that the checker still catches every seeded bug.  It is the gate that
shows no trained model moved.  The run happens in a subprocess, as a
user's CLI call does.
"""

from pathlib import Path

from repro.workloads.registry import ALL_BENCHMARKS
from tests.integration.test_fig11_strict_gate import _repro

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def test_every_asic_golden_matches_and_every_seeded_bug_is_caught():
    result = _repro("check", "--scale", "0.05", "--golden-dir",
                    str(GOLDEN_DIR), "--smoke")
    assert result.returncode == 0, result.stdout[-2000:]
    lines = result.stdout.splitlines()
    for name in ALL_BENCHMARKS:
        assert f"{name}/asic: 10 schemes, 0 violation(s), golden match" \
            in lines
        assert f"{name}/asic: smoke ok (5 seeded bugs caught)" in lines
    assert lines[-1] == "check: ok"

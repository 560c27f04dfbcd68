"""The golden gates: every accelerator against its committed golden.

``repro check --scale 0.05 --golden-dir tests/golden --smoke`` runs the
offline flow for all seven accelerators, replays every scheme's episode
through the invariant checker, compares each against its committed
golden (trained model, energy, misses, per-job outcomes) and confirms
that the checker still catches every seeded bug.  It is the gate that
shows no trained model moved.  The same gate runs once more with the
``interp`` oracle simulating instead of the default ``stepjit`` kernel,
and once on the FPGA family's goldens.  Each run happens in a
subprocess, as a user's CLI call does.
"""

from pathlib import Path

import pytest

from repro.workloads.registry import ALL_BENCHMARKS
from tests.integration.test_fig11_strict_gate import _repro

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _gate(*args):
    """The gate's output lines, after asserting every golden matched."""
    result = _repro("check", "--scale", "0.05", "--golden-dir",
                    str(GOLDEN_DIR), *args)
    assert result.returncode == 0, result.stdout[-2000:]
    lines = result.stdout.splitlines()
    tech = args[args.index("--tech") + 1] if "--tech" in args else "asic"
    for name in ALL_BENCHMARKS:
        assert f"{name}/{tech}: 10 schemes, 0 violation(s), golden match" \
            in lines
    assert lines[-1] == "check: ok"
    return lines


def test_every_asic_golden_matches_and_every_seeded_bug_is_caught():
    lines = _gate("--smoke")
    for name in ALL_BENCHMARKS:
        assert f"{name}/asic: smoke ok (5 seeded bugs caught)" in lines


@pytest.mark.parametrize("args", [("--backend", "interp"),
                                  ("--tech", "fpga")],
                         ids=["interp", "fpga"])
def test_every_golden_matches(args):
    _gate(*args)

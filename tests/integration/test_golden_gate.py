"""The golden gates: every accelerator against its committed golden.

``repro check --scale 0.05 --golden-dir tests/golden --smoke`` runs the
offline flow for all seven accelerators, replays every scheme's episode
through the invariant checker, compares each against its committed
golden (trained model, energy, misses, per-job outcomes) and confirms
that the checker still catches every seeded bug.  It is the gate that
shows no trained model moved.  The same gate runs once more with the
``interp`` oracle simulating instead of the default ``stepjit`` kernel,
and once on the FPGA family's goldens, and once more building the
seven bundles in four worker processes through an artifact cache, cold
and then warm.  Each run happens in a subprocess, as a user's CLI call
does.
"""

import re
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


def _cache_footer(lines, cache_dir):
    """``(hits, misses, puts)`` from the ``--cache-dir`` footer."""
    (footer,) = [line for line in lines if line.startswith("cache: ")]
    match = re.fullmatch(r"cache: (\d+) hit\(s\), (\d+) miss\(es\), "
                         r"(\d+) put\(s\), 0 evicted — (.+)", footer)
    assert match and match[4] == str(cache_dir), footer
    return tuple(int(match[k]) for k in (1, 2, 3))


def test_parallel_cached_goldens_count_every_cache_operation(tmp_path):
    """Four workers build the bundles into a cold cache dir: every
    golden matches, and the footer counts the workers' cache operations
    too: each entry is looked up once, missed and written, one file
    each.  A warm rerun loads all seven bundles and writes nothing."""
    args = ("--jobs", "4", "--cache-dir", str(tmp_path))
    hits, misses, puts = _cache_footer(_gate(*args), tmp_path)
    assert hits == 0
    assert misses == puts == len(list(tmp_path.glob("*/*/*.pkl"))) > 0
    assert _cache_footer(_gate(*args), tmp_path) == (7, 0, 0)

"""Unit tests for the utility layers: units, tech pricing, stats."""

import pytest

from repro.rtl.netlist import Cell, Netlist, Provenance
from repro.rtl import tech
from repro.units import (
    DVFS_SWITCH_TIME,
    FRAME_DEADLINE_60FPS,
    MS,
    TIME_EPS_REL,
    deadline_missed,
)


def test_paper_constants():
    assert FRAME_DEADLINE_60FPS == pytest.approx(16.7e-3)
    assert DVFS_SWITCH_TIME == pytest.approx(100e-6)


def test_deadline_missed_epsilon_band():
    deadline = 10 * MS
    # Genuinely late and genuinely early are unambiguous.
    assert deadline_missed(deadline * 1.1, 0.0, deadline)
    assert not deadline_missed(deadline * 0.9, 0.0, deadline)
    # A finish a few ULPs past the boundary is rounding, not a miss ...
    assert not deadline_missed(deadline * (1 + 1e-12), 0.0, deadline)
    # ... but an overrun beyond the relative epsilon counts.
    assert deadline_missed(deadline * (1 + 3e-9), 0.0, deadline)
    # The band scales with the deadline and shifts with the release.
    release = 7 * deadline
    assert not deadline_missed(release + deadline * (1 + 1e-12),
                               release, deadline)
    assert TIME_EPS_REL == 1e-9


def _cell(kind, width=16, param=0, count=1):
    return Cell(cid=0, kind=kind, out="o", fanin=(), width=width,
                provenance=Provenance("wire", "t"), param=param,
                count=count)


def test_asic_area_rules():
    assert tech.asic_cell_area(_cell("PORT")) == 0.0
    assert tech.asic_cell_area(_cell("CONST")) == 0.0
    # Multiplier area grows quadratically with width.
    narrow = tech.asic_cell_area(_cell("MUL", width=8))
    wide = tech.asic_cell_area(_cell("MUL", width=16))
    assert wide == pytest.approx(narrow * 4)
    # SRAM pricing: overhead + per bit.
    sram = tech.asic_cell_area(_cell("SRAM", param=1024))
    assert sram > tech.asic_cell_area(_cell("SRAM", param=512))
    # count multiplies area.
    assert tech.asic_cell_area(_cell("ADD", count=3)) \
        == pytest.approx(3 * tech.asic_cell_area(_cell("ADD")))


def test_asic_energy_rules():
    sram = _cell("SRAM", param=8192)
    logic = _cell("ADD")
    # SRAM toggles a small fraction of its area per access.
    assert (tech.asic_switch_energy_per_cycle(sram)
            < tech.asic_cell_area(sram) * 0.80e-15)
    assert tech.asic_switch_energy_per_cycle(logic) > 0
    assert tech.asic_leakage_power(1e6) > tech.asic_leakage_power(1e5)


def test_fpga_resource_rules():
    assert tech.fpga_cell_resources(_cell("DFF", width=8)).ffs == 8
    assert tech.fpga_cell_resources(_cell("MUL", width=16)).dsps == 1
    assert tech.fpga_cell_resources(_cell("MUL", width=32)).dsps == 2
    assert tech.fpga_cell_resources(
        _cell("SRAM", param=40_000)).brams > 1
    assert tech.fpga_cell_resources(_cell("PORT")).luts == 0


def test_fpga_fraction_ignores_unused_resource_types():
    total = tech.FpgaResources(luts=100, ffs=100, dsps=0, brams=0)
    part = tech.FpgaResources(luts=50, ffs=10)
    # Only LUTs count (DSP/BRAM totals are zero, FFs are excluded by
    # the paper's LUT/DSP/BRAM metric).
    assert part.fraction_of(total) == pytest.approx(0.5)


def test_netlist_stats_and_repr():
    nl = Netlist("x")
    nl.add("PORT", (), out="a")
    nl.add("ADD", ("a", "a"), out="b", count=2)
    assert nl.stats() == {"PORT": 1, "ADD": 2}
    assert "cells=2" in repr(nl)
    assert len(nl) == 2
    assert nl.readers("a")[0].out == "b"

"""Hardware slicing tests on the toy accelerator."""

import numpy as np
import pytest

from repro.analysis import FeatureRecorder, discover_features, record_jobs
from repro.rtl import BACKENDS, Simulation, make_simulation, synthesize
from repro.slicing import (
    build_slice,
    compute_slice_cost,
    elidable_dynamic_waits,
    elidable_wait_states,
)
from tests.conftest import build_toy, pack_item


@pytest.fixture(scope="module")
def sliced():
    module = build_toy()
    netlist = synthesize(module)
    features = discover_features(module, netlist)
    hw_slice = build_slice(module, features)
    return module, netlist, features, hw_slice


def test_elidable_wait_states_respects_feeds_control():
    module = build_toy()
    assert elidable_wait_states(module) == {
        ("ctrl", "COMP_A"), ("ctrl", "COMP_B"),
    }
    assert elidable_dynamic_waits(module) == frozenset()


def test_slice_drops_datapath(sliced):
    _, _, _, hw_slice = sliced
    assert not hw_slice.module.datapath_blocks
    kinds = {c.provenance.construct for c in hw_slice.netlist}
    assert "datapath" not in kinds


def test_slice_area_is_small_fraction(sliced):
    _, netlist, _, hw_slice = sliced
    cost = compute_slice_cost(netlist, hw_slice.netlist)
    assert 0.0 < cost.area_fraction < 0.5
    assert 0.0 < cost.resource_fraction < 1.0


def test_slice_runs_much_faster(sliced):
    module, _, _, hw_slice = sliced
    items = [pack_item(100, m % 2) for m in range(8)]
    full = Simulation(module)
    full.load(inputs={"n_items": 8}, memories={"items": items})
    full_cycles = full.run().cycles
    fast = Simulation(hw_slice.module)
    fast.load(inputs={"n_items": 8}, memories={"items": items})
    result = fast.run()
    assert result.finished
    assert result.cycles < full_cycles / 10


def test_slice_computes_identical_features(sliced):
    """Wait-state elision keeps every feature, on both backends: the
    slice's transition counts and counter loads equal the design's."""
    module, _, features, hw_slice = sliced
    jobs = []
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = int(rng.integers(1, 10))
        items = [pack_item(int(rng.integers(0, 200)),
                           int(rng.integers(0, 2))) for _ in range(n)]
        jobs.append(({"n_items": n}, {"items": items}))
    for backend in BACKENDS:
        full = record_jobs(module, features, jobs, backend=backend)
        sliced_mat = record_jobs(hw_slice.module, features, jobs,
                                 backend=backend)
        np.testing.assert_array_equal(full.x, sliced_mat.x)


def test_slice_with_subset_of_features_drops_unused_counters(sliced):
    module, _, features, _ = sliced
    # Keep only features about counter c_a.
    keep = [s for s in features if s.source == "c_a"]
    hw_slice = build_slice(module, keep)
    assert "c_b" in hw_slice.dropped_counters
    assert "c_a" not in hw_slice.dropped_counters
    # The slice still terminates (done logic retained).
    sim = Simulation(hw_slice.module)
    items = [pack_item(50, 0), pack_item(50, 1)]
    sim.load(inputs={"n_items": 2}, memories={"items": items})
    assert sim.run().finished


def test_subset_slice_is_smaller(sliced):
    module, netlist, features, full_slice = sliced
    keep = [s for s in features if s.source == "c_a"]
    small = build_slice(module, keep)
    from repro.rtl import tech
    assert tech.asic_area(small.netlist) <= tech.asic_area(full_slice.netlist)


def test_slice_cycle_count_matches_step_structure(sliced):
    module, _, _, hw_slice = sliced
    items = [pack_item(250, 1)] * 3
    for backend in BACKENDS:
        sim = make_simulation(hw_slice.module, backend=backend)
        sim.load(inputs={"n_items": 3}, memories={"items": items})
        result = sim.run()
        # Elided: IDLE(1) + per item FETCH(1)+COMP(1)+EMIT(1).
        assert result.finished and result.cycles == 1 + 3 * 3, backend

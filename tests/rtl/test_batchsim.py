"""Batch (lockstep numpy) backend: drivers, edge cases and telemetry.

Cross-backend bit-exactness lives in ``test_fuzz_backends.py``; this
file covers the batch-specific surfaces — empty batches, unfinished
rows, elide variants, compaction under divergent job lengths, the
``make_simulation`` hand-off to stepjit, program caching/pickling, the
width guard, and the ``sim.batch.*`` observability counters.
"""

import pickle

import numpy as np
import pytest

from repro.obs import session
from repro.rtl import (
    BatchSimulation,
    Module,
    Sig,
    Simulation,
    StepSimulation,
    compile_batch_stepper,
    make_simulation,
    set_default_backend,
)
from tests.conftest import build_toy, pack_item, toy_expected_cycles


def _toy_jobs(specs):
    jobs = []
    for spec in specs:
        items = [pack_item(w, m) for w, m in spec]
        jobs.append(({"n_items": len(items)}, {"items": items}))
    return jobs


def test_empty_batch():
    result = BatchSimulation(build_toy()).run_jobs([])
    assert result.rows == 0
    assert result.cycles.shape == (0,)
    assert result.finished.shape == (0,)
    assert result.occupancy == 1.0


def test_cycles_match_closed_form():
    specs = [[(5, 0)], [(3, 1), (2, 0)], [(1, 1)] * 4, [(9, 0), (9, 1)]]
    result = BatchSimulation(build_toy()).run_jobs(_toy_jobs(specs))
    assert result.finished.all()
    want = [toy_expected_cycles([pack_item(w, m) for w, m in spec])
            for spec in specs]
    assert result.cycles.tolist() == want


def test_unfinished_rows_are_reported_not_raised():
    # n_items=0 never leaves IDLE; the batch driver reports it via
    # ``finished`` and leaves raising to the caller.
    jobs = _toy_jobs([[(2, 0)]]) + [({"n_items": 0}, {"items": []})]
    result = BatchSimulation(build_toy()).run_jobs(jobs, max_cycles=500)
    assert bool(result.finished[0]) and not bool(result.finished[1])
    assert int(result.cycles[1]) == 500


def test_elide_variant_matches_interp():
    module = build_toy()
    elide = (("ctrl", "COMP_B"),)
    jobs = _toy_jobs([[(3, 1), (2, 0)], [(7, 1)] * 3])
    batch = BatchSimulation(module, elide=elide)
    result = batch.run_jobs(jobs)
    for row, (inputs, memories) in enumerate(jobs):
        sim = Simulation(module, elide=elide)
        sim.load(inputs=inputs, memories=memories)
        ref = sim.run()
        assert ref.finished
        assert int(result.cycles[row]) == ref.cycles


def test_compaction_under_divergent_lengths():
    # One long row among many short ones: the driver compacts retired
    # rows away and occupancy stays well above the no-compaction bound.
    specs = [[(200, 1)] * 6] + [[(1, 0)]] * 31
    result = BatchSimulation(build_toy()).run_jobs(_toy_jobs(specs))
    assert result.finished.all()
    want = [toy_expected_cycles([pack_item(w, m) for w, m in spec])
            for spec in specs]
    assert result.cycles.tolist() == want
    assert 0.0 < result.occupancy <= 1.0
    # 31 short rows retire almost immediately; without compaction the
    # long row would drag occupancy below 1/32.
    assert result.occupancy > 1.0 / 32.0


def test_program_cache_and_variants():
    module = build_toy()
    a = compile_batch_stepper(module)
    assert compile_batch_stepper(module) is a
    b = compile_batch_stepper(module, fast_forward=False)
    assert b is not a
    assert "_jump" in a.source and "_jump" not in b.source


def test_program_pickle_roundtrip():
    module = build_toy()
    program = compile_batch_stepper(module, track_state_cycles=True)
    clone = pickle.loads(pickle.dumps(program))
    assert clone.scalar_names == program.scalar_names
    assert clone.event_layout == program.event_layout
    assert clone.source == program.source


def test_make_simulation_falls_back_for_incompatible_listener():
    # The batch kernel only drives whole job lists; one-job-at-a-time
    # callers under ``batch`` get the step compiler, listener or not.
    class Ordered:
        def on_transition(self, fsm, src, dst):
            pass

    module = build_toy()
    try:
        set_default_backend("batch")
        assert isinstance(make_simulation(module, listener=Ordered()),
                          StepSimulation)
        assert isinstance(make_simulation(module), StepSimulation)
    finally:
        set_default_backend(None)


def test_width_guard_rejects_wide_registers():
    m = Module("wide")
    m.port("go", 1)
    m.reg("big", 63)
    m.set_done(Sig("go") == 1)
    module = m.finalize()
    with pytest.raises(ValueError, match="63 bits"):
        compile_batch_stepper(module)


def test_batch_obs_counters(tmp_path):
    jobs = _toy_jobs([[(5, 0)], [(3, 1)], [(2, 0)] * 2])
    with session(run_dir=tmp_path / "run", command="t") as obs:
        BatchSimulation(build_toy()).run_jobs(jobs)
        counters = obs.metrics.counters
        assert counters["sim.batch.runs"] == 1.0
        assert counters["sim.batch.rows"] == 3.0
        assert counters["sim.batch.lockstep_cycles"] > 0
        gauge = obs.metrics.gauges["sim.batch.occupancy"]
        assert 0.0 < gauge <= 1.0

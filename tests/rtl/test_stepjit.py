"""Stepjit backend tests: cycle-exactness, listeners, pickling, cache."""

import pickle

import pytest

from repro.accelerators import get_design
from repro.obs import session
from repro.rtl import (
    Module,
    Simulation,
    StepSimulation,
    compile_stepper,
    make_simulation,
    resolve_backend,
    set_default_backend,
)
from repro.workloads import workload_for
from tests.conftest import build_toy, pack_item, toy_expected_cycles
from tests.rtl.test_simulator import Recorder

ITEMS = [pack_item(9, 0), pack_item(3, 1), pack_item(0, 0),
         pack_item(77, 1), pack_item(255, 1)]


def _run(module, cls, items=ITEMS, **kwargs):
    sim = cls(module, **kwargs)
    sim.load(inputs={"n_items": len(items)}, memories={"items": items})
    result = sim.run()
    return sim, result


@pytest.mark.parametrize("fast_forward", [True, False])
def test_stepjit_toy_cycle_exact(fast_forward):
    module = build_toy()
    sim_i, res_i = _run(module, Simulation, fast_forward=fast_forward)
    sim_s, res_s = _run(module, StepSimulation, fast_forward=fast_forward)
    assert res_s.cycles == res_i.cycles == toy_expected_cycles(ITEMS)
    assert res_s.finished and res_i.finished
    assert sim_s.state == sim_i.state
    assert sim_s.state_cycles == sim_i.state_cycles
    assert sim_s.ff_jumps == sim_i.ff_jumps
    assert sim_s._fsm_state == sim_i._fsm_state


def test_stepjit_listener_sequences_match_interpreter():
    module = build_toy()
    rec_i, rec_s = Recorder(), Recorder()
    _run(module, Simulation, listener=rec_i)
    _run(module, StepSimulation, listener=rec_s)
    assert rec_s.transitions == rec_i.transitions
    assert rec_s.loads == rec_i.loads
    assert rec_s.resets == rec_i.resets


def test_stepjit_wants_cycles_snapshots_match():
    class Tracer(Recorder):
        wants_cycles = True

        def __init__(self):
            super().__init__()
            self.snaps = []

        def on_cycle(self, cycle, state):
            self.snaps.append((cycle, dict(state)))

    items = [pack_item(4, 0), pack_item(2, 1)]
    module = build_toy()
    rec_i, rec_s = Tracer(), Tracer()
    _run(module, Simulation, items=items, listener=rec_i)
    _run(module, StepSimulation, items=items, listener=rec_s)
    assert rec_s.snaps == rec_i.snaps


def test_stepjit_elide_parity():
    module = build_toy()
    elide = {("ctrl", "COMP_A"), ("ctrl", "COMP_B")}
    sim_i, res_i = _run(module, Simulation, elide=elide)
    sim_s, res_s = _run(module, StepSimulation, elide=elide)
    assert res_s.cycles == res_i.cycles < toy_expected_cycles(ITEMS)
    assert sim_s.state == sim_i.state
    assert sim_s.state_cycles == sim_i.state_cycles


def test_stepjit_state_cycles_dict_identity_preserved():
    # flow/evaluate holds sim.state_cycles across jobs and clear()s it;
    # run() must mutate that same mapping, not rebind it.
    module = build_toy()
    sim = StepSimulation(module)
    cells = sim.state_cycles
    sim.load(inputs={"n_items": 2},
             memories={"items": [pack_item(3, 0), pack_item(1, 1)]})
    result = sim.run()
    assert sim.state_cycles is cells
    assert result.state_cycles == cells and cells


def test_stepjit_program_cache_and_variants():
    module = build_toy()
    a = compile_stepper(module)
    b = compile_stepper(module)
    assert a is b
    c = compile_stepper(module, track_state_cycles=False)
    assert c is not a
    # Listener machinery is compiled in only when asked for.
    assert "on_transition" not in a.source and "_lt" not in a.source
    d = compile_stepper(module, has_listener=True)
    assert "_lt(" in d.source


def test_stepjit_program_pickle_roundtrip():
    module = build_toy()
    program = compile_stepper(module)
    clone = pickle.loads(pickle.dumps(program))
    assert clone.source == program.source
    assert clone.scalar_names == program.scalar_names
    # The regenerated function must actually run.
    sim = StepSimulation(clone.module)
    sim.load(inputs={"n_items": len(ITEMS)}, memories={"items": ITEMS})
    assert sim.run().cycles == toy_expected_cycles(ITEMS)


def test_stepjit_simulation_pickles_like_interpreter():
    sim = StepSimulation(build_toy())
    clone = pickle.loads(pickle.dumps(sim))
    clone.load(inputs={"n_items": len(ITEMS)}, memories={"items": ITEMS})
    assert clone.run().cycles == toy_expected_cycles(ITEMS)


def test_stepjit_requires_finalized_module():
    with pytest.raises(ValueError, match="finalized"):
        compile_stepper(Module("raw"))


def test_stepjit_emits_sim_metrics(tmp_path):
    with session(run_dir=tmp_path / "run", command="unit test") as obs:
        _run(build_toy(), StepSimulation)
        counters = obs.metrics.snapshot()["counters"]
    assert counters["sim.stepjit.runs"] == 1.0
    assert counters["sim.stepjit.cycles"] == toy_expected_cycles(ITEMS)
    assert counters["sim.stepjit.ff_jumps"] > 0
    assert counters["sim.stepjit.compiles"] >= 1.0
    assert counters["sim.stepjit.codegen_s"] > 0.0


@pytest.mark.parametrize("name", ["h264", "djpeg", "aes"])
def test_stepjit_benchmark_designs_cycle_exact(name):
    design = get_design(name)
    module = design.build()
    workload = workload_for(name, scale=0.1)
    for item in workload.test[:2]:
        job = design.encode_job(item)
        results = []
        for cls in (Simulation, StepSimulation):
            sim = cls(module, track_state_cycles=True)
            sim.load(*job.as_pair())
            results.append((sim.run(), dict(sim.state)))
        (res_i, state_i), (res_s, state_s) = results
        assert res_i.cycles == res_s.cycles
        assert res_i.state_cycles == res_s.state_cycles
        assert state_i == state_s


def test_backend_resolution_precedence():
    set_default_backend(None)
    assert resolve_backend() == "stepjit"
    set_default_backend("interp")
    try:
        assert resolve_backend() == "interp"
        assert resolve_backend("stepjit") == "stepjit"
    finally:
        set_default_backend(None)
    for bad in ("verilator", "compiled", "batch"):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            resolve_backend(bad)


def test_make_simulation_picks_the_backend():
    module = build_toy()
    sim = make_simulation(module, backend="stepjit")
    assert isinstance(sim, StepSimulation)
    sim = make_simulation(module, backend="interp")
    assert type(sim) is Simulation
    assert sim.module is module

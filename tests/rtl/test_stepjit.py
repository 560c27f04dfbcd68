"""Stepjit backend tests: cycle-exactness, listeners, pickling, cache."""

import ast
import gc
import pathlib
import pickle
import weakref

import pytest

import repro.rtl
from repro.accelerators import ALL_DESIGNS, get_design
from repro.analysis import FeatureRecorder, FeatureSet, discover_features
from repro.obs import session
from repro.rtl import (
    Listener,
    Module,
    Simulation,
    StepSimulation,
    compile_stepper,
    make_simulation,
    resolve_backend,
    set_default_backend,
    synthesize,
)
from repro.rtl.stepjit import _PROGRAMS
from repro.slicing import build_slice
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


class _ArcCounter(FeatureRecorder):
    """A recorder that overrides one callback: it must be called."""

    def __init__(self, feature_set):
        super().__init__(feature_set)
        self.arcs = 0

    def on_transition(self, fsm, src, dst):
        self.arcs += 1
        super().on_transition(fsm, src, dst)


def _toy_features(module):
    return discover_features(module, synthesize(module))


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

    # A stock recorder compiles its slots inline: no callbacks.
    features = _toy_features(module)
    recorder = FeatureRecorder(features)
    sim, _ = _run(module, StepSimulation, listener=recorder)
    program = sim.program()
    assert program.slots == features.slots
    assert "_acc[" in program.source
    for call in ("_lt(", "_lcl(", "_lcr("):
        assert call not in program.source

    # Equal feature sets share one program.
    twin = FeatureRecorder(FeatureSet(features.specs))
    assert twin.event_slots() is not recorder.event_slots()
    assert StepSimulation(module, listener=twin).program() is program

    # A subclass overriding a callback keeps the callback variant.
    counter = _ArcCounter(features)
    assert counter.event_slots() is None
    sim, _ = _run(module, StepSimulation, listener=counter)
    assert "_lt(" in sim.program().source
    arcs = sum(value for spec, value in zip(features, recorder.vector())
               if spec.kind == "stc")
    assert counter.arcs == arcs > 0
    assert counter.vector().tobytes() == recorder.vector().tobytes()

    # The slot variant survives a pickle round trip.
    twin_module, clone = pickle.loads(pickle.dumps((module, program)))
    assert clone.module is twin_module
    assert clone.slots == program.slots
    assert clone.source == program.source
    copy = FeatureRecorder(features)
    sim = StepSimulation(twin_module, listener=copy)
    sim.load(inputs={"n_items": len(ITEMS)}, memories={"items": ITEMS})
    assert sim.run().cycles == toy_expected_cycles(ITEMS)
    assert copy.vector().tobytes() == recorder.vector().tobytes()


def test_stepjit_never_calls_a_stock_recorders_callbacks(monkeypatch):
    module = build_toy()
    features = _toy_features(module)
    calls = []

    def refuse(self, *args):
        calls.append(args)

    reference = FeatureRecorder(features)
    _run(module, StepSimulation, listener=reference)
    recorder = FeatureRecorder(features)
    for name in ("on_transition", "on_counter_load", "on_counter_reset",
                 "on_cycle"):
        # Patched onto the instance: the class stays stock.
        monkeypatch.setattr(recorder, name, refuse.__get__(recorder))
    _run(module, StepSimulation, listener=recorder)
    assert calls == []
    assert recorder.vector().tobytes() == reference.vector().tobytes()
    # The interp oracle is called back, and records the same vector.
    _run(module, Simulation, listener=recorder)
    assert calls


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_stepjit_chunked_run_records_the_same_vector(chunk):
    module = build_toy()
    features = _toy_features(module)
    once = FeatureRecorder(features)
    _, whole = _run(module, StepSimulation, listener=once)
    recorder = FeatureRecorder(features)
    sim = StepSimulation(module, listener=recorder)
    sim.load(inputs={"n_items": len(ITEMS)}, memories={"items": ITEMS})
    runs = 0
    while True:
        runs += 1
        result = sim.run(max_cycles=sim.cycle + chunk)
        if result.finished:
            break
    assert runs > 1
    assert result.cycles == whole.cycles
    assert recorder.vector().tobytes() == once.vector().tobytes()
    # reset() starts the recorder's next job: a second job records
    # afresh.
    sim.run_job({"n_items": len(ITEMS)}, {"items": ITEMS})
    assert recorder.vector().tobytes() == once.vector().tobytes()


def test_rtl_layer_imports_nothing_from_analysis():
    root = pathlib.Path(repro.rtl.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert "analysis" not in name.split("."), (path.name, name)


def test_stepjit_program_pickle_roundtrip():
    module = build_toy()
    program = compile_stepper(module)
    twin_module, clone = pickle.loads(pickle.dumps((module, program)))
    assert clone.module is twin_module
    assert clone.source == program.source
    assert clone.scalar_names == program.scalar_names
    # The regenerated function must actually run.
    sim = StepSimulation(twin_module)
    sim.load(inputs={"n_items": len(ITEMS)}, memories={"items": ITEMS})
    assert sim.run().cycles == toy_expected_cycles(ITEMS)


def test_programs_die_with_their_modules():
    """The program cache is keyed weakly on the module, so a cached
    program must not hold its module alive."""
    modules = [build_toy() for _ in range(3)]
    for module in modules:
        _run(module, StepSimulation)
    assert all(module in _PROGRAMS for module in modules)
    alive = [weakref.ref(module) for module in modules]
    del modules, module
    gc.collect()
    assert [ref() for ref in alive] == [None] * 3


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


def _wait_left(sim):
    """Cycles until the longest wait the FSMs are parked in ends (at
    least 1): the stretch one fast-forward jump could cover."""
    left = [1]
    for fsm in sim.module.fsms.values():
        state = sim._fsm_state[fsm.name]
        if state in fsm.wait_states:
            left.append(sim.state[fsm.wait_states[state]])
        if state in fsm.dynamic_waits:
            left.append(sim._dyn_stall[fsm.name])
    return max(left)


def _design_run(cls, target, job, listener=None, window=None, **kwargs):
    """One job's outcome; with a ``window``, fast-forward stays off
    except, after every ``window`` cycles, until the current wait ends
    (a jump never passes ``max_cycles``), so the job still reaches
    every state."""
    sim = cls(target, listener=listener, **kwargs)
    sim.load(*job.as_pair(), ignore_unknown=True)
    while True:
        sim.fast_forward = window is None
        finished = sim.run(sim.cycle + (window or 200_000_000)).finished
        if finished or window is None:
            break
        sim.fast_forward = True
        finished = sim.run(sim.cycle + _wait_left(sim)).finished
        if finished:
            break
    return (sim.cycle, finished, sim.ff_jumps, dict(sim.state),
            dict(sim.state_cycles), dict(sim._fsm_state))


def test_a_jump_never_passes_max_cycles():
    """cjpeg's first job enters a wait of thousands of cycles before
    cycle 100: ``run(max_cycles=100)`` returns at cycle 100 on both
    backends, in the state a run without fast-forward reaches, and
    resuming ends where an uncapped run does."""
    design = get_design("cjpeg")
    module = design.build()
    job = design.encode_job(workload_for("cjpeg", scale=0.1).test[0])

    def loaded(cls, fast_forward=True):
        sim = cls(module, fast_forward=fast_forward)
        sim.load(*job.as_pair())
        return sim

    def outcome(sim):
        return (sim.cycle, dict(sim.state), dict(sim.state_cycles),
                dict(sim._fsm_state))

    whole = loaded(Simulation)
    assert whole.run().finished
    stepped = loaded(Simulation, fast_forward=False)
    assert not stepped.run(max_cycles=100).finished
    jumps = []
    for cls in (Simulation, StepSimulation):
        sim = loaded(cls)
        result = sim.run(max_cycles=100)
        assert (result.cycles, result.finished) == (100, False)
        assert outcome(sim) == outcome(stepped)
        jumps.append(sim.ff_jumps)
        assert sim.run().finished
        assert outcome(sim) == outcome(whole)
    assert jumps[1] == jumps[0]


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_stepjit_benchmark_designs_cycle_exact(name):
    """Full design and slice, in every kernel variant: stepjit matches
    the interp oracle on cycles, fast-forward jumps, final state and
    per-state residency, plus the recorded vector byte for byte
    (compiled slots, fast-forward on and off), the ordered events
    (callbacks) or nothing more (no listener)."""
    design = get_design(name)
    module = design.build()
    features = discover_features(module, synthesize(module))
    hw_slice = build_slice(module, features)
    workload = workload_for(name, scale=0.1)
    for item in workload.test[:2]:
        job = design.encode_job(item)
        for target in (module, hw_slice.module):
            variants = (
                (lambda: FeatureRecorder(features), {}),
                (lambda: FeatureRecorder(features), {"window": 8}),
                (Recorder, {}),
                (lambda: None, {"track_state_cycles": False}),
            )
            for make, kwargs in variants:
                runs = []
                for cls in (Simulation, StepSimulation):
                    listener = make()
                    outcome = _design_run(cls, target, job, listener,
                                          **kwargs)
                    if isinstance(listener, FeatureRecorder):
                        outcome += (listener.vector().tobytes(),)
                    elif listener is not None:
                        outcome += ((listener.transitions, listener.loads,
                                     listener.resets),)
                    runs.append(outcome)
                assert runs[1] == runs[0], (target.name, kwargs)
                assert runs[0][1] and runs[0][2], (target.name, kwargs)


def test_cycle_listener_sees_every_counter_on_cjpegs_slice():
    """Only the variants without callbacks count load-only counters
    lazily: an ``on_cycle`` listener on cjpeg's slice sees the same
    counter values after every cycle and jump on both backends, the
    three load-only counters included."""
    design = get_design("cjpeg")
    module = design.build()
    features = discover_features(module, synthesize(module))
    target = build_slice(module, features).module
    counters = list(target.counters)
    lazy = {"c_dct", "c_quant", "c_huf"}
    source = StepSimulation(target, listener=FeatureRecorder(features)
                            ).program().source
    assert {name for name in counters
            if f"e_{name} = cycle + S[{name!r}]" in source} == lazy

    class Counters(Listener):
        wants_cycles = True

        def __init__(self):
            self.seen = []

        def on_cycle(self, cycle, state):
            self.seen.append((cycle, [state[name] for name in counters]))

    job = design.encode_job(workload_for("cjpeg", scale=0.1).test[0])
    seen = []
    for cls in (Simulation, StepSimulation):
        listener = Counters()
        sim = cls(target, listener=listener)
        assert sim.run_job(*job.as_pair(), ignore_unknown=True).finished
        seen.append(listener.seen)
    assert seen[1] == seen[0]
    counting = {name for _cycle, values in seen[0]
                for name, value in zip(counters, values) if value > 1}
    assert lazy <= counting


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

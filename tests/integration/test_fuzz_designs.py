"""Property tests over randomly generated accelerator designs.

A design generator builds random-but-valid pipelines in the RTL IR:
an item loop whose stages are plain states, counter waits with affine
data-dependent latencies, or dynamic waits, plus optional event
counters and registers.  Every framework invariant must hold for every
generated design:

* structural detection finds exactly the FSM and all counters;
* fast-forward simulation is cycle-exact vs plain stepping;
* the stepjit and batch backends are cycle-exact vs the interpreter;
* the hardware slice computes identical features to the full design;
* the Verilog exporter renders it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import detect_counters, detect_fsms, discover_features, record_jobs
from repro.gen.conformance import compare_backends
from repro.rtl import (
    Fsm,
    MemRead,
    Module,
    Sig,
    Simulation,
    down_counter,
    synthesize,
    to_verilog,
    up_counter,
)
from repro.slicing import build_slice


@dataclass(frozen=True)
class StageSpec:
    kind: str        # "plain" | "wait" | "dyn"
    base: int        # constant latency part
    coeff: int       # per-field-unit latency
    field: int       # which packed data field drives it (0 or 1)


def build_random_module(stages: Tuple[StageSpec, ...],
                        with_up_counter: bool) -> Module:
    m = Module("fuzz")
    n_items = m.port("n_items", 8)
    m.memory("data", depth=64, width=12)
    idx = m.reg("idx", 8)
    word = m.wire("word", MemRead("data", Sig("idx")), 12)
    m.wire("f0", Sig("word") & 0x3F, 6)
    m.wire("f1", (Sig("word") >> 6) & 0x3F, 6)

    fsm = Fsm("ctrl", initial="IDLE")
    names = [f"S{i}" for i in range(len(stages))]
    fsm.transition("IDLE", names[0], cond=n_items > 0)
    for i, name in enumerate(names[:-1]):
        fsm.transition(name, names[i + 1])
    fsm.transition(names[-1], "EMIT")
    fsm.transition("EMIT", names[0], cond=idx < (n_items - 1),
                   actions=[("idx", idx + 1)])
    fsm.transition("EMIT", "DONE", actions=[("idx", idx + 1)])

    for i, (name, spec) in enumerate(zip(names, stages)):
        value = Sig(f"f{spec.field}") * spec.coeff + spec.base
        if spec.kind == "wait":
            fsm.wait_state(name, f"c{i}")
        elif spec.kind == "dyn":
            fsm.dynamic_wait(name, value)
    m.fsm(fsm)
    for i, (name, spec) in enumerate(zip(names, stages)):
        if spec.kind == "wait":
            entering = (fsm.arc_signal("IDLE", name) if i == 0
                        else fsm.arc_signal(names[i - 1], name))
            load_cond = entering
            if i == 0:
                load_cond = fsm.entry_signal(name)  # loop + initial entry
            value = Sig(f"f{spec.field}") * spec.coeff + spec.base
            m.counter(down_counter(f"c{i}", load_cond=load_cond,
                                   load_value=value, width=16))
    if with_up_counter:
        m.counter(up_counter(
            "emitted", reset_cond=fsm.arc_signal("EMIT", "DONE"),
            enable=fsm.entry_signal("EMIT"), width=8,
        ))
    m.set_done(Sig("ctrl__state") == fsm.code_of("DONE"))
    return m.finalize()


stage_strategy = st.builds(
    StageSpec,
    kind=st.sampled_from(["plain", "wait", "wait", "dyn"]),
    base=st.integers(0, 40),
    coeff=st.integers(0, 20),
    field=st.integers(0, 1),
)

design_strategy = st.tuples(
    st.lists(stage_strategy, min_size=1, max_size=4).map(tuple),
    st.booleans(),
)

items_strategy = st.lists(st.integers(0, (1 << 12) - 1),
                          min_size=1, max_size=6)


@settings(max_examples=25, deadline=None)
@given(design=design_strategy, items=items_strategy)
def test_detection_complete_on_random_designs(design, items):
    stages, with_up = design
    module = build_random_module(stages, with_up)
    netlist = synthesize(module)
    detected_fsms = {f.state_net for f in detect_fsms(netlist)}
    assert "ctrl__state" in detected_fsms
    detected_counters = {c.net: c.mode for c in detect_counters(netlist)}
    for name, counter in module.counters.items():
        assert detected_counters.get(name) == counter.mode


@settings(max_examples=25, deadline=None)
@given(design=design_strategy, items=items_strategy)
def test_fast_forward_exact_on_random_designs(design, items):
    stages, with_up = design
    module = build_random_module(stages, with_up)
    results = []
    for ff in (True, False):
        sim = Simulation(module, fast_forward=ff)
        sim.load(inputs={"n_items": len(items)}, memories={"data": items})
        results.append(sim.run(max_cycles=500_000))
    assert results[0].finished and results[1].finished
    assert results[0].cycles == results[1].cycles
    assert results[0].state_cycles == results[1].state_cycles


@settings(max_examples=15, deadline=None)
@given(design=design_strategy, items=items_strategy)
def test_backends_exact_on_random_designs(design, items):
    stages, with_up = design
    module = build_random_module(stages, with_up)
    compare_backends(module,
                     [({"n_items": len(items)}, {"data": items})],
                     max_cycles=500_000)


@settings(max_examples=15, deadline=None)
@given(design=design_strategy, items=items_strategy)
def test_slice_features_equal_on_random_designs(design, items):
    stages, with_up = design
    module = build_random_module(stages, with_up)
    netlist = synthesize(module)
    features = discover_features(module, netlist)
    hw_slice = build_slice(module, features)
    jobs = [({"n_items": len(items)}, {"data": items})]
    full = record_jobs(module, features, jobs, max_cycles=500_000)
    sliced = record_jobs(hw_slice.module, features, jobs,
                         max_cycles=500_000,
                         ignore_unknown_inputs=True)
    np.testing.assert_array_equal(full.x, sliced.x)
    assert sliced.cycles[0] <= full.cycles[0]


@settings(max_examples=10, deadline=None)
@given(design=design_strategy)
def test_verilog_exports_random_designs(design):
    stages, with_up = design
    module = build_random_module(stages, with_up)
    text = to_verilog(module)
    assert "module fuzz (" in text
    assert text.count("endmodule") == 1
    for counter in module.counters:
        assert counter in text

"""Simulator tests: correctness, fast-forward equivalence, events."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.rtl import Fsm, Listener, Module, Sig, Simulation, down_counter
from tests.conftest import build_toy, pack_item, toy_expected_cycles


class Recorder(Listener):
    def __init__(self):
        self.transitions = []
        self.loads = []
        self.resets = []

    def on_transition(self, fsm, src, dst):
        self.transitions.append((fsm, src, dst))

    def on_counter_load(self, counter, value):
        self.loads.append((counter, value))

    def on_counter_reset(self, counter, value):
        self.resets.append((counter, value))


def run_toy(items, fast_forward=True, listener=None):
    sim = Simulation(build_toy(), listener=listener,
                     fast_forward=fast_forward)
    sim.load(inputs={"n_items": len(items)}, memories={"items": items})
    return sim.run()


def test_toy_cycle_count_matches_closed_form():
    items = [pack_item(5, 0), pack_item(3, 1), pack_item(0, 0)]
    result = run_toy(items)
    assert result.finished
    assert result.cycles == toy_expected_cycles(items)


def test_toy_without_fast_forward_matches():
    items = [pack_item(7, 1), pack_item(2, 0)]
    slow = run_toy(items, fast_forward=False)
    fast = run_toy(items, fast_forward=True)
    assert slow.finished and fast.finished
    assert slow.cycles == fast.cycles
    assert slow.state_cycles == fast.state_cycles


def test_empty_job_times_out_in_idle():
    sim = Simulation(build_toy())
    sim.load(inputs={"n_items": 0}, memories={"items": []})
    result = sim.run(max_cycles=50)
    assert not result.finished
    assert result.cycles == 50


def test_listener_sees_transitions_and_loads():
    items = [pack_item(5, 0), pack_item(3, 1)]
    rec = Recorder()
    result = run_toy(items, listener=rec)
    assert result.finished
    assert ("ctrl", "IDLE", "FETCH") in rec.transitions
    assert rec.transitions.count(("ctrl", "FETCH", "COMP_A")) == 1
    assert rec.transitions.count(("ctrl", "FETCH", "COMP_B")) == 1
    assert ("c_a", 15) in rec.loads   # 5 * 3
    assert ("c_b", 21) in rec.loads   # 3 * 7
    # The up counter resets once at job start.
    assert rec.resets == [("items_done", 0)]


def test_listener_events_identical_with_and_without_fast_forward():
    items = [pack_item(9, 0), pack_item(1, 1), pack_item(4, 1)]
    rec_fast, rec_slow = Recorder(), Recorder()
    run_toy(items, fast_forward=True, listener=rec_fast)
    run_toy(items, fast_forward=False, listener=rec_slow)
    assert rec_fast.transitions == rec_slow.transitions
    assert rec_fast.loads == rec_slow.loads
    assert rec_fast.resets == rec_slow.resets


def test_up_counter_counts_items():
    items = [pack_item(2, 0)] * 4
    sim = Simulation(build_toy())
    sim.load(inputs={"n_items": 4}, memories={"items": items})
    sim.run()
    assert sim.state["items_done"] == 4


def test_state_cycles_accounting():
    items = [pack_item(5, 0)]
    result = run_toy(items)
    # COMP_A holds for load+1 cycles: counter goes 15 -> 0 then exits.
    assert result.cycles_in("ctrl", "COMP_A") == 16
    assert result.cycles_in("ctrl", "FETCH") == 1
    assert result.cycles_in("ctrl", "EMIT") == 1
    assert result.cycles_in("ctrl", "COMP_B") == 0


def test_reset_restores_initial_state():
    items = [pack_item(5, 0)]
    sim = Simulation(build_toy())
    sim.load(inputs={"n_items": 1}, memories={"items": items})
    first = sim.run()
    sim.reset()
    sim.load(inputs={"n_items": 1}, memories={"items": items})
    second = sim.run()
    assert first.cycles == second.cycles


def test_load_rejects_unknown_port_and_memory():
    sim = Simulation(build_toy())
    with pytest.raises(KeyError):
        sim.load(inputs={"nope": 1})
    with pytest.raises(KeyError):
        sim.load(memories={"nope": []})


def test_unfinalized_module_rejected():
    m = Module("raw")
    m.set_done(Sig("x") == 0)
    with pytest.raises(ValueError):
        Simulation(m)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 1)),
    min_size=1, max_size=12,
))
def test_fast_forward_is_exact_property(items_spec):
    """Fast-forwarded runs are cycle-for-cycle identical to stepping."""
    items = [pack_item(w, m) for w, m in items_spec]
    fast = run_toy(items, fast_forward=True)
    slow = run_toy(items, fast_forward=False)
    assert fast.finished and slow.finished
    assert fast.cycles == slow.cycles == toy_expected_cycles(items)
    assert fast.state_cycles == slow.state_cycles


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 120), st.integers(0, 1)),
    min_size=1, max_size=8,
))
def test_final_architectural_state_identical(items_spec):
    items = [pack_item(w, m) for w, m in items_spec]
    sims = []
    for ff in (True, False):
        sim = Simulation(build_toy(), fast_forward=ff)
        sim.load(inputs={"n_items": len(items)}, memories={"items": items})
        sim.run()
        sims.append(sim)
    assert sims[0].state == sims[1].state


def test_dynamic_wait_duration():
    """A dynamic wait stalls for exactly the evaluated duration."""
    m = Module("dyn")
    m.port("dur", 16)
    fsm = Fsm("f", initial="S0")
    fsm.transition("S0", "W")
    fsm.transition("W", "DONE")
    fsm.dynamic_wait("W", Sig("dur"))
    m.fsm(fsm)
    m.set_done(Sig("f__state") == fsm.code_of("DONE"))
    m.finalize()

    for duration in (0, 1, 5, 100):
        for ff in (True, False):
            sim = Simulation(m, fast_forward=ff)
            sim.load(inputs={"dur": duration})
            result = sim.run()
            assert result.finished
            # S0(1) + W(duration + 1) cycles.
            assert result.cycles == duration + 2, (duration, ff)


def test_wait_counter_with_step_greater_than_one():
    m = Module("step2")
    m.port("n", 16)
    fsm = Fsm("f", initial="S0")
    fsm.transition("S0", "W")
    fsm.transition("W", "DONE")
    fsm.wait_state("W", "cnt")
    m.fsm(fsm)
    m.counter(down_counter(
        "cnt", load_cond=fsm.arc_signal("S0", "W"),
        load_value=Sig("n"), width=16, step=3,
    ))
    m.set_done(Sig("f__state") == fsm.code_of("DONE"))
    m.finalize()

    for n in (0, 1, 3, 7, 9):
        cycles = []
        for ff in (True, False):
            sim = Simulation(m, fast_forward=ff)
            sim.load(inputs={"n": n})
            result = sim.run()
            assert result.finished
            cycles.append(result.cycles)
        assert cycles[0] == cycles[1], n
        expected_wait = -(-n // 3)  # ceil
        assert cycles[0] == 1 + expected_wait + 1

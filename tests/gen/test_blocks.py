"""Unit tests for the composable design builder.

Each block of the vocabulary is lowered alone onto a minimal spec and
its cycle-level behaviour is checked against a hand computation —
branch arms route on the mode bit, fork/join time is the max of the
branch waits, producers tick beside the main loop, and invalid specs
are rejected at construction.
"""

from __future__ import annotations

import pytest

from repro.analysis import discover_features
from repro.gen import (
    BranchSpec,
    DesignBuilder,
    DesignSpec,
    FieldSpec,
    ForkJoinSpec,
    ProducerSpec,
    StageSpec,
    build_module,
)
from repro.rtl import Simulation, errors_only, lint_module, synthesize

FIELDS = (FieldSpec("f0", offset=0, bits=6),
          FieldSpec("mode", offset=11, bits=1))


def _spec(pipeline, **kw):
    return DesignSpec(name="unit", fields=FIELDS,
                      pipeline=tuple(pipeline), mem_depth=32,
                      mem_width=12, **kw)


def _run(module, items):
    sim = Simulation(module)
    sim.load(inputs={"n_items": len(items)}, memories={"items": items})
    result = sim.run(max_cycles=100_000)
    assert result.finished
    return result, sim


def test_wait_stage_duration_is_affine():
    # IDLE -> W(base + coeff*f0) -> EMIT -> DONE; one item.
    module = build_module(
        _spec([StageSpec("wait", "W", base=3, coeff=2, field="f0")]))
    r5, sim5 = _run(module, [5])
    r9, _ = _run(module, [9])
    # Same path, durations differ by coeff * (9 - 5).
    assert r9.cycles - r5.cycles == 2 * (9 - 5)
    # Residency = duration + 1 (the entry cycle loads the counter).
    assert sim5.state_cycles[("ctrl", "W")] == 3 + 2 * 5 + 1


def test_step_stage_is_single_cycle():
    # Constant-duration waits so the comparison isolates the step.
    waits = build_module(_spec([
        StageSpec("wait", "W", base=6, coeff=0),
    ]))
    stepped = build_module(_spec([
        StageSpec("step", "P"),
        StageSpec("wait", "W", base=6, coeff=0),
    ]))
    a, _ = _run(waits, [4, 7])
    b, sim = _run(stepped, [4, 7])
    assert b.cycles - a.cycles == 2  # one extra cycle per item
    assert sim.state_cycles[("ctrl", "P")] == 2


def _rle_module():
    """FETCH, then two counter waits per item."""
    return build_module(DesignSpec(
        name="rle",
        fields=(FieldSpec("length", offset=0, bits=8),
                FieldSpec("cost", offset=8, bits=4)),
        pipeline=(StageSpec("step", "FETCH"),
                  StageSpec("wait", "EXPAND", base=20, coeff=9,
                            field="length"),
                  StageSpec("wait", "WRITE", base=1, coeff=3,
                            field="cost")),
        mem_depth=32, mem_width=12))


def test_item_loop_cycles():
    result, _ = _run(_rle_module(), [2 << 8 | 10, 3])
    # IDLE->FETCH, then per item FETCH + EXPAND + WRITE + EMIT, a
    # wait holding for its duration plus its entry cycle.
    assert result.cycles == 1 + sum(
        1 + (20 + 9 * length + 1) + (1 + 3 * cost + 1) + 1
        for length, cost in ((10, 2), (3, 0)))


def test_item_loop_features():
    # Every wait gets an aivs feature, the loop an apvs feature on
    # items_done.
    module = _rle_module()
    names = set(discover_features(module, synthesize(module)).names())
    assert {"aivs:c_expand", "aivs:c_write", "apvs:items_done",
            "stc:ctrl:FETCH->EXPAND"} <= names


def test_dynamic_stage_is_invisible_to_counter_features():
    spec = DesignSpec(
        name="dynny", fields=(FieldSpec("f", offset=0, bits=8),),
        pipeline=(StageSpec("step", "FETCH"),
                  StageSpec("dyn", "SERIAL", base=1, coeff=5, field="f")),
        mem_depth=8, mem_width=8)
    module = build_module(spec)
    names = discover_features(module, synthesize(module)).names()
    # STC features see the stage's arcs, but no counter feature
    # measures its duration (the stall is opaque).
    assert any(n.startswith("stc:") and "SERIAL" in n for n in names)
    assert not any(n.startswith(("ic:", "aivs:", "apvs:"))
                   and "serial" in n.lower() for n in names)
    result, _ = _run(module, [4])
    # IDLE->FETCH + FETCH + SERIAL(1 + 5*4, plus entry) + EMIT.
    assert result.cycles == 1 + 1 + 22 + 1


def test_branch_routes_on_mode_bit():
    branch = BranchSpec("BR", mode_field="mode", arms=(
        StageSpec("wait", "A", base=4, coeff=0),
        StageSpec("wait", "B", base=19, coeff=0),
    ))
    module = build_module(_spec([branch]))
    _, sim_a = _run(module, [0])             # mode bit clear -> arm A
    _, sim_b = _run(module, [1 << 11])       # mode bit set -> arm B
    assert sim_a.state_cycles.get(("ctrl", "A"), 0) == 4 + 1
    assert sim_a.state_cycles.get(("ctrl", "B"), 0) == 0
    assert sim_b.state_cycles.get(("ctrl", "B"), 0) == 19 + 1
    assert sim_b.state_cycles.get(("ctrl", "A"), 0) == 0


def test_fork_join_waits_for_slowest_branch():
    fork = ForkJoinSpec("FJ", branches=(
        StageSpec("wait", "K0", base=5, coeff=0),
        StageSpec("wait", "K1", base=17, coeff=0),
    ))
    short = build_module(_spec([fork]))
    alone = build_module(_spec([
        StageSpec("wait", "K1", base=17, coeff=0)]))
    a, sim = _run(short, [0])
    b, _ = _run(alone, [0])
    # JOIN parks until the slow branch finishes: the fork costs the
    # max of the branches (plus fork/join bookkeeping), never the sum.
    run1 = sim.state_cycles[("fj_br1", "RUN")]
    run0 = sim.state_cycles[("fj_br0", "RUN")]
    assert run1 - run0 == 17 - 5
    assert a.cycles < b.cycles + 10  # far below 5 + 17 serial

    # Branch FSMs re-arm between items.
    multi, sim2 = _run(short, [0, 0, 0])
    assert sim2.state_cycles[("fj_br1", "RUN")] == 3 * run1


def test_producer_runs_beside_main_loop():
    spec = _spec(
        [StageSpec("wait", "W", base=30, coeff=0)],
        producer=ProducerSpec("prod", "feed", depth=16, width=8,
                              base=2, mask=0x7),
    )
    module = build_module(spec)
    sim = Simulation(module)
    sim.load(inputs={"n_items": 1},
             memories={"items": [0], "feed": [3] * 16})
    result = sim.run(max_cycles=100_000)
    assert result.finished
    # The producer fetched at least a few words while ctrl was busy.
    assert sim.state_cycles.get(("prod", "FETCH"), 0) > 0
    assert sim.state["prod_ptr"] > 0


def test_builder_output_is_lint_clean():
    fork = ForkJoinSpec("FJ", branches=(
        StageSpec("wait", "K0", base=2, coeff=1, field="f0"),
        StageSpec("wait", "K1", base=3, coeff=2, field="f0"),
    ))
    branch = BranchSpec("BR", mode_field="mode", arms=(
        StageSpec("wait", "A", base=4, coeff=1, field="f0"),
        StageSpec("wait", "B", base=9, coeff=0),
    ))
    spec = _spec(
        [StageSpec("step", "P"), branch, fork,
         StageSpec("dyn", "D", base=2, coeff=1, field="f0")],
        producer=ProducerSpec("prod", "feed", depth=16, width=8),
        busy_counter=True,
    )
    assert errors_only(lint_module(build_module(spec))) == []


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="unknown stage kind"):
        StageSpec("warp", "X")
    with pytest.raises(ValueError, match="base must be >= 1"):
        StageSpec("wait", "X", base=0)
    with pytest.raises(ValueError, match="arms must be wait"):
        BranchSpec("BR", mode_field="mode", arms=(
            StageSpec("step", "A"), StageSpec("wait", "B", base=1)))
    with pytest.raises(ValueError, match="at least two branches"):
        ForkJoinSpec("FJ", branches=(
            StageSpec("wait", "K0", base=1),))
    with pytest.raises(ValueError, match="no stages"):
        build_module(_spec([]))
    with pytest.raises(TypeError, match="unknown block"):
        build_module(_spec(["not-a-block"]))


def test_builder_rejects_empty_and_finished():
    with pytest.raises(ValueError, match="no stages"):
        DesignBuilder(_spec([])).finish()
    builder = DesignBuilder(_spec([]))
    builder.add_stage(StageSpec("step", "A"))
    builder.finish()
    with pytest.raises(RuntimeError, match="already finished"):
        builder.add_stage(StageSpec("step", "B"))


def test_zero_items_parks_in_idle():
    """n_items == 0 holds in IDLE (the item-loop launch contract);
    workload generators always emit at least one item."""
    module = build_module(_spec([
        StageSpec("wait", "W", base=5, coeff=0)]))
    sim = Simulation(module)
    sim.load(inputs={"n_items": 0}, memories={"items": []})
    result = sim.run(max_cycles=50)
    assert not result.finished
    assert sim.state_cycles.get(("ctrl", "W"), 0) == 0

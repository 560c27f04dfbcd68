"""Differential fuzzing: both simulation backends must agree exactly.

Generates small random-but-terminating modules exercising the whole
semantic surface — multi-FSM designs with wait counters, dynamic
waits, up counters, arc actions, conditional update rules and
memory-driven guards — and runs them through the shared differential
harness :func:`repro.gen.conformance.compare_backends`: ``stepjit``
must match the ``interp`` oracle on cycle count, final architectural
state, ``state_cycles``, FSM states and ordered listener events, with
fast-forward both on and off.

Termination by construction: every FSM is a forward chain of states
(arcs only advance), wait counters are loaded from bounded memory
words, and dynamic-wait durations are bounded expressions — so every
run finishes in at most a few thousand cycles.
"""

import random

import pytest

from repro.gen.conformance import (
    COMPARED_FIELDS,
    backend_runs,
    compare_backends,
)
from repro.rtl import (
    Fsm,
    MemRead,
    Module,
    Sig,
    down_counter,
    up_counter,
)

#: The fixed single job the per-seed agreement tests run.
JOB = ({"n": 3}, {"data": [((7 * i) ^ 5) & 0xFF for i in range(16)]})


def build_fuzz_module(seed: int) -> Module:
    """One random small module; same seed -> same design."""
    rng = random.Random(seed)
    m = Module(f"fuzz{seed}")
    m.port("n", 8)
    m.memory("data", depth=16, width=8)
    m.reg("acc", 16)
    m.reg("last", 8)
    cur = m.wire("cur", MemRead("data", Sig("step_count") & 0xF), 8)

    n_fsms = rng.randint(1, 2)
    final_guards = []
    for f_idx in range(n_fsms):
        fsm = Fsm(f"f{f_idx}", initial="S0")
        n_states = rng.randint(3, 6)
        names = [f"S{i}" for i in range(n_states)]
        waits = []
        for i in range(n_states - 1):
            src, dst = names[i], names[i + 1]
            kind = rng.choice(["plain", "guard", "wait", "dyn", "act"])
            if kind == "guard":
                fsm.transition(src, dst, cond=Sig("n") > rng.randint(0, 2))
                fsm.transition(src, dst)  # default keeps it moving
            elif kind == "act":
                fsm.transition(src, dst, actions=[
                    ("acc", Sig("acc") + cur),
                    ("last", cur),
                ])
            else:
                fsm.transition(src, dst)
            if kind == "wait":
                counter = f"w{f_idx}_{i}"
                fsm.wait_state(dst, counter)
                waits.append((counter, fsm.arc_signal(src, dst)))
            elif kind == "dyn":
                fsm.dynamic_wait(dst, (cur & 0x7) + rng.randint(0, 3))
        m.fsm(fsm)
        for counter, load in waits:
            m.counter(down_counter(
                counter, load_cond=load,
                load_value=(cur & 0xF) * rng.randint(1, 3),
                width=8,
            ))
        final_guards.append(
            Sig(fsm.state_signal) == fsm.code_of(names[-1]))

    m.counter(up_counter("step_count", reset_cond=0, width=8))
    if rng.random() < 0.5:
        m.counter(up_counter(
            "busy_count", reset_cond=Sig("n") == 0, width=8,
            enable=Sig("f0__state") != 0,
        ))
    if rng.random() < 0.5:
        m.update("acc", Sig("acc") + 1, cond=Sig("step_count") & 1)
    if rng.random() < 0.5:
        m.update("last", Sig("n"), fsm="f0", state="S1")

    done = final_guards[0]
    for guard in final_guards[1:]:
        done = done & guard
    m.set_done(done)
    return m.finalize()


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_on_random_modules(seed):
    compare_backends(build_fuzz_module(seed), [JOB], max_cycles=100_000)


@pytest.mark.parametrize("seed", range(0, 25, 5))
def test_fast_forward_is_exact_per_backend(seed):
    """ff on/off must agree within each backend, not just across."""
    module = build_fuzz_module(seed)
    on = backend_runs(module, [JOB], True, max_cycles=100_000)
    off = backend_runs(module, [JOB], False, max_cycles=100_000)
    fields = dict(COMPARED_FIELDS, interp=COMPARED_FIELDS["stepjit"])
    for backend, names in fields.items():
        for field in names:
            assert on[backend][0][field] == off[backend][0][field], (
                seed, backend, field)


@pytest.mark.parametrize("seed", range(0, 25, 3))
def test_batch_wide_agrees_with_interp(seed):
    """A wide batch of jobs with divergent inputs: each job's stepjit
    run must match its own interp run."""
    module = build_fuzz_module(seed)
    rng = random.Random(1000 + seed)
    jobs = []
    for _row in range(17):
        words = [rng.randrange(256) for _ in range(rng.randrange(1, 17))]
        jobs.append(({"n": rng.randrange(8)}, {"data": words}))
    compare_backends(module, jobs, max_cycles=100_000)

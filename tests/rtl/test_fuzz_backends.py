"""Differential fuzzing: both simulation backends must agree exactly.

Generates small random-but-terminating modules exercising the whole
semantic surface — multi-FSM designs with wait counters, load-only
counters (loaded on an arc, read by nothing, as a slice leaves a
counter whose wait it elided), dynamic waits, up counters, arc
actions, conditional update rules and memory-driven guards, half of
them holding still while they wait so the fast-forward jump fires —
and runs them through the shared differential
harness :func:`repro.gen.conformance.compare_backends`: ``stepjit``
must match the ``interp`` oracle on cycle count, fast-forward jump
count, final architectural state, ``state_cycles``, FSM states,
ordered listener events and the bytes of the feature vector a
recorder records over the module's discovered features (with the
outcome of the run that recorded it), with fast-forward both on and
off.

Termination by construction: every FSM is a forward chain of states
(arcs only advance), wait counters are loaded from bounded memory
words, and dynamic-wait durations are bounded expressions — so every
run finishes in at most a few thousand cycles.
"""

import random

import numpy as np
import pytest

from repro.gen.conformance import (
    COMPARED_FIELDS,
    backend_runs,
    compare_backends,
)
from repro.analysis import FeatureRecorder, discover_features
from repro.rtl import (
    Fsm,
    MemRead,
    Module,
    Sig,
    StepSimulation,
    down_counter,
    synthesize,
    up_counter,
)

#: The fixed single job the per-seed agreement tests run.
JOB = ({"n": 3}, {"data": [((7 * i) ^ 5) & 0xFF for i in range(16)]})


def build_fuzz_module(seed: int) -> Module:
    """One random small module; same seed -> same design."""
    rng = random.Random(seed)
    loads = random.Random(seed + 1_000_003)  # keeps rng's designs
    # Half the modules hold still while they wait, so the jump has
    # stretches to take: ``cur`` reads memory at ``last`` (written by
    # arcs and f0's S1 rule) instead of at the free-running
    # ``step_count``, and the register rules fire only when n == 0.
    holds = random.Random(seed + 2_000_003).random() < 0.5
    m = Module(f"fuzz{seed}")
    m.port("n", 8)
    m.memory("data", depth=16, width=8)
    m.reg("acc", 16)
    m.reg("last", 8)
    index = Sig("last") if holds else Sig("step_count")
    cur = m.wire("cur", MemRead("data", index & 0xF), 8)

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
        for k in range(loads.randint(1, 2)):
            # A short count can end inside a wait (and end the jump
            # over it), a long one can outlive the run.
            short = loads.random() < 0.5
            m.counter(down_counter(
                f"lo{f_idx}_{k}",
                load_cond=fsm.entry_signal(loads.choice(names[1:])),
                load_value=(cur & 0x3) + loads.randint(1, 2) if short
                else (cur & 0xF) * loads.randint(1, 4) + loads.randint(0, 20),
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
    still = Sig("n") == 0 if holds else None
    if rng.random() < 0.5:
        m.update("acc", Sig("acc") + 1,
                 cond=still if holds else Sig("step_count") & 1)
    if rng.random() < 0.5:
        m.update("last", Sig("n"), fsm="f0", state="S1", cond=still)

    done = final_guards[0]
    for guard in final_guards[1:]:
        done = done & guard
    m.set_done(done)
    return m.finalize()


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_on_random_modules(seed):
    compare_backends(build_fuzz_module(seed), [JOB], max_cycles=100_000)


def test_most_fuzz_modules_record_features():
    """The feature comparison has teeth: most fuzz modules expose
    discovered features, and the job records non-zero values."""
    recorded = 0
    for seed in range(25):
        runs = backend_runs(build_fuzz_module(seed), [JOB], True,
                            max_cycles=100_000)
        vector = np.frombuffer(runs["interp"][0]["features"])
        recorded += bool(vector.size and vector.any())
    assert recorded >= 20


def test_fuzz_modules_take_the_jump():
    """The jump comparison has teeth: the modules that hold still while
    they wait make interp fast-forward (26 jumps over the 25 seeds)."""
    jumps = sum(
        backend_runs(build_fuzz_module(seed), [JOB], True,
                     max_cycles=100_000)["interp"][0]["ff_jumps"]
        for seed in range(25))
    assert jumps >= 20


def test_fuzz_modules_count_load_only_counters_lazily():
    """Every fuzz module's load-only counters are counted lazily by the
    kernel the feature recorder runs, and each is a feature."""
    for seed in range(25):
        module = build_fuzz_module(seed)
        features = discover_features(module, synthesize(module))
        sim = StepSimulation(module, listener=FeatureRecorder(features))
        source = sim.program().source
        for name in module.counters:
            lazy = f"e_{name} = cycle + S[{name!r}]" in source
            assert lazy == name.startswith("lo"), (seed, name)
            assert f"ic:{name}" in features.names(), (seed, name)


@pytest.mark.parametrize("seed", range(0, 25, 5))
def test_fast_forward_is_exact_per_backend(seed):
    """ff on/off must agree within each backend, not just across."""
    module = build_fuzz_module(seed)
    on = backend_runs(module, [JOB], True, max_cycles=100_000)
    off = backend_runs(module, [JOB], False, max_cycles=100_000)
    # Jump counts differ between on and off by design.
    names = [f for f in COMPARED_FIELDS["stepjit"]
             if not f.endswith("ff_jumps")]
    for backend in ("interp", "stepjit"):
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

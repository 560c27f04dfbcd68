"""Property tests for the design-space sampler itself.

Every design :func:`repro.gen.sample_design` emits — across seeds and
complexity tiers — must be a first-class citizen of the stack: lint
clean, exportable to Verilog, accepted by the stepjit and batch
compilers, deterministic in its seed, and terminating on every
sampled workload.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.gen import COMPLEXITIES, sample_design, sample_workload
from repro.rtl import (
    BatchSimulation,
    Simulation,
    compile_batch_stepper,
    compile_stepper,
    errors_only,
    lint_module,
    synthesize,
    to_verilog,
)

seed_strategy = st.integers(0, 9999)
complexity_strategy = st.sampled_from(sorted(COMPLEXITIES))


@settings(max_examples=40, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy)
def test_sampled_designs_are_lint_clean(seed, complexity):
    module = sample_design(seed, complexity).build()
    assert errors_only(lint_module(module)) == []


@settings(max_examples=25, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy)
def test_sampled_designs_export_verilog(seed, complexity):
    design = sample_design(seed, complexity)
    module = design.build()
    text = to_verilog(module)
    assert f"module {design.name} (" in text
    assert text.count("endmodule") == 1
    for counter in module.counters:
        assert counter in text


@settings(max_examples=25, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy)
def test_sampled_designs_compile_on_every_backend(seed, complexity):
    """stepjit / batch codegen both accept every sample."""
    module = sample_design(seed, complexity).build()
    compile_stepper(module)
    compile_batch_stepper(module)


@settings(max_examples=20, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy)
def test_sampled_designs_synthesize(seed, complexity):
    netlist = synthesize(sample_design(seed, complexity).build())
    assert len(netlist.cells) > 0


@settings(max_examples=15, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy,
       wseed=st.integers(0, 99))
def test_sampled_workloads_terminate(seed, complexity, wseed):
    design = sample_design(seed, complexity)
    module = design.build()
    for items in sample_workload(design, 2, seed=wseed):
        job = design.encode_job(items)
        sim = Simulation(module)
        sim.load(inputs=job.inputs, memories=job.memories)
        result = sim.run(max_cycles=2_000_000)
        assert result.finished
        assert result.cycles > len(items)


@settings(max_examples=10, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy)
def test_batch_backend_runs_samples(seed, complexity):
    design = sample_design(seed, complexity)
    jobs = [design.encode_job(items).as_pair()
            for items in sample_workload(design, 2, seed=5)]
    result = BatchSimulation(design.build()).run_jobs(
        jobs, max_cycles=2_000_000)
    assert result.finished.all()


@settings(max_examples=15, deadline=None)
@given(seed=seed_strategy, complexity=complexity_strategy)
def test_sampling_is_deterministic(seed, complexity):
    a = sample_design(seed, complexity)
    b = sample_design(seed, complexity)
    assert a.spec == b.spec
    assert a.nominal_frequency == b.nominal_frequency
    assert sample_workload(a, 3, seed=7) == sample_workload(b, 3, seed=7)


def test_complexity_tiers_are_distinct():
    """Tier knobs actually widen the space: more stages at large."""
    small = sample_design(0, "small").spec
    assert len(small.pipeline) <= 3
    # Across a few seeds, large must use fork/join at least once
    # (p=0.8 per seed) and medium never does.
    assert any(
        type(block).__name__ == "ForkJoinSpec"
        for s in range(5)
        for block in sample_design(s, "large").spec.pipeline)
    assert not any(
        type(block).__name__ == "ForkJoinSpec"
        for s in range(5)
        for block in sample_design(s, "medium").spec.pipeline)


def test_unknown_complexity_rejected():
    import pytest

    with pytest.raises(ValueError, match="unknown complexity"):
        sample_design(0, "xl")

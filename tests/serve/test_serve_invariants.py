"""check_stream catches every class of tampering it claims to."""

import math
from dataclasses import replace

import pytest

from repro.check import (
    STREAM_MUTATIONS,
    InvariantError,
    run_mutation_smoke,
    seed_double_counted_fallback_energy,
    seed_dropped_job_on_overflow,
)
from repro.dvfs import HistoryController
from repro.runtime import run_episode
from repro.serve import COMPLETED, FALLBACK, SHED, StreamResult, \
    serve_stream
from repro.units import DVFS_SWITCH_TIME, MS
from tests.conftest import TASK, FlatEnergyModel, job

from .conftest import stream_records, violations_of


def spaced(records, gap):
    from repro.serve import stream_from_records
    return stream_from_records(records,
                               [i * gap for i in range(len(records))])


@pytest.fixture
def mixed(make_stream, asic_levels):
    """A served stream with all three terminal states present."""
    records = stream_records(asic_levels, n=40)
    broken = [replace(r, predicted_cycles=None) if i % 5 == 0 else r
              for i, r in enumerate(records)]
    stream = make_stream(queue_depth=3)
    result = serve_stream(stream, spaced(broken, 0.5 * MS))
    assert result.n_completed and result.n_fallback and result.n_shed
    assert violations_of(stream, result) == []
    return stream, result


def tampered(result, **changes):
    return StreamResult(stream=result.stream, scheme=result.scheme,
                        deadline=result.deadline,
                        n_offered=result.n_offered,
                        wall_s=result.wall_s,
                        outcomes=list(result.outcomes), **changes)


def codes(violations):
    return {v.code for v in violations}


def test_clean_stream_has_no_violations(mixed):
    stream, result = mixed
    assert violations_of(stream, result) == []


def test_dropped_job_caught(mixed):
    stream, result = mixed
    mutated = seed_dropped_job_on_overflow(result)
    assert "stream.conservation" in codes(violations_of(stream, mutated))


def test_double_counted_fallback_energy_caught(mixed):
    stream, result = mixed
    mutated = seed_double_counted_fallback_energy(result)
    assert "energy.recompute" in codes(violations_of(stream, mutated))


def test_mutations_require_applicable_stream(mixed):
    """Seeding on a stream without the precondition refuses loudly."""
    stream, result = mixed
    clean = tampered(result)
    clean.outcomes = [o for o in result.outcomes if o.status != SHED]
    clean.n_offered = len(clean.outcomes)
    with pytest.raises(ValueError, match="no shed job"):
        seed_dropped_job_on_overflow(clean)
    clean.outcomes = [o for o in clean.outcomes
                      if o.status != FALLBACK]
    clean.n_offered = len(clean.outcomes)
    with pytest.raises(ValueError, match="no fallback job"):
        seed_double_counted_fallback_energy(clean)


def test_unknown_terminal_state_caught(mixed):
    stream, result = mixed
    bad = tampered(result)
    bad.outcomes[0] = bad.outcomes[0]._replace(status="limbo")
    assert "stream.terminal" in codes(violations_of(stream, bad))


def test_duplicated_outcome_caught(mixed):
    stream, result = mixed
    bad = tampered(result)
    bad.outcomes[1] = bad.outcomes[1]._replace(
        index=bad.outcomes[0].index)
    assert "stream.conservation" in codes(violations_of(stream, bad))


def test_shed_with_energy_caught(mixed):
    stream, result = mixed
    bad = tampered(result)
    i = next(i for i, o in enumerate(bad.outcomes)
             if o.status == SHED)
    bad.outcomes[i] = bad.outcomes[i]._replace(energy=1e-6)
    assert "stream.shed" in codes(violations_of(stream, bad))


def test_fallback_with_slice_time_caught(mixed):
    stream, result = mixed
    bad = tampered(result)
    i = next(i for i, o in enumerate(bad.outcomes)
             if o.status == FALLBACK)
    bad.outcomes[i] = bad.outcomes[i]._replace(t_slice=1e-5)
    assert "stream.fallback" in codes(violations_of(stream, bad))


@pytest.mark.parametrize("predicted, slice_cycles", [
    (math.nan, 100), (math.inf, 100), (-5.0, 100), (None, 100),
    (1000.0, -3)])
def test_completed_on_invalid_prediction_caught(mixed, predicted,
                                                slice_cycles):
    stream, result = mixed
    bad = tampered(result)
    i = next(i for i, o in enumerate(bad.outcomes)
             if o.status == COMPLETED)
    job = replace(bad.outcomes[i].job, predicted_cycles=predicted)
    # A record refuses negative slice cycles; a tampered one need not.
    object.__setattr__(job, "slice_cycles", slice_cycles)
    bad.outcomes[i] = bad.outcomes[i]._replace(job=job)
    assert "stream.prediction" in codes(violations_of(stream, bad))


def test_timeline_gap_caught(mixed):
    stream, result = mixed
    bad = tampered(result)
    i = next(i for i, o in enumerate(bad.outcomes) if o.executed)
    bad.outcomes[i] = bad.outcomes[i]._replace(
        start=bad.outcomes[i].start + 1 * MS)
    assert "stream.timeline" in codes(violations_of(stream, bad))


def test_strict_serve_raises_on_violation(make_stream, asic_levels,
                                          monkeypatch):
    """REPRO_CHECK=strict wires check_stream into serve_streams."""
    import repro.serve.server as server_mod

    records = stream_records(asic_levels, n=6)
    stream = make_stream()  # strict=None -> follow REPRO_CHECK
    monkeypatch.setenv("REPRO_CHECK", "strict")

    original = server_mod.AcceleratorStream.result

    def corrupting_result(self, wall_s=0.0):
        result = original(self, wall_s)
        result.outcomes[0] = result.outcomes[0]._replace(energy=99.0)
        return result

    monkeypatch.setattr(server_mod.AcceleratorStream, "result",
                        corrupting_result)
    with pytest.raises(InvariantError):
        serve_stream(stream, spaced(records, 20 * MS))


def test_mutation_smoke_covers_stream_bugs(mixed, asic_levels):
    """run_mutation_smoke(stream=...) exercises both serve-layer bugs
    alongside the episode-layer ones, and every one is caught."""
    stream, result = mixed
    model = FlatEnergyModel()
    light = int(asic_levels.nominal.frequency * 2 * MS)
    heavy = int(asic_levels.nominal.frequency * 8 * MS)
    jobs = [job(i, heavy if i % 4 == 3 else light) for i in range(12)]
    ctrl = HistoryController(asic_levels, DVFS_SWITCH_TIME)
    episode = run_episode(ctrl, jobs, TASK, model)
    report = run_mutation_smoke(episode, model,
                                slice_energy_model=model,
                                levels=asic_levels,
                                stream=result)
    for name in STREAM_MUTATIONS:
        assert name in report
        assert report[name], f"mutation {name} was not caught"

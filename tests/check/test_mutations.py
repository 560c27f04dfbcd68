"""Mutation-smoke tests: every seeded bug must trip the checker."""

import pytest

from repro.check import (
    MUTATIONS,
    apply_mutation,
    check_episode,
    run_mutation_smoke,
    seed_spurious_miss,
    seed_timeline_gap,
    seed_uncharged_switch_energy,
)
from repro.dvfs import ConstantFrequencyController
from repro.runtime import run_episode
from repro.serve import StreamResult

from .conftest import TASK, job

#: The violation each seeded bug class must at minimum produce.
EXPECTED_CODE = {
    "spurious_miss": "deadline.miss_flag",
    "uncharged_switch_energy": "energy.recompute",
    "timeline_gap": "timeline.start",
}


def test_registry_and_expectations_agree():
    assert set(MUTATIONS) == set(EXPECTED_CODE)


def test_every_seeded_bug_is_caught(clean_episode, levels, model):
    report = run_mutation_smoke(clean_episode, model, levels=levels)
    assert set(report) == set(MUTATIONS)
    for name, violations in report.items():
        assert violations, f"checker went blind to {name}"
        assert EXPECTED_CODE[name] in {v.code for v in violations}


def test_mutations_leave_the_original_untouched(clean_episode, levels,
                                                model):
    before = [(o.start, o.energy, o.missed, o.t_switch)
              for o in clean_episode.outcomes]
    run_mutation_smoke(clean_episode, model, levels=levels)
    after = [(o.start, o.energy, o.missed, o.t_switch)
             for o in clean_episode.outcomes]
    assert before == after
    assert check_episode(clean_episode, energy_model=model,
                         levels=levels) == []


def test_unknown_mutation_name_raises(clean_episode):
    with pytest.raises(KeyError, match="unknown mutation"):
        apply_mutation("transpose_voltages", clean_episode)


def test_switch_energy_mutation_requires_the_model(clean_episode):
    with pytest.raises(ValueError, match="energy model"):
        seed_uncharged_switch_energy(clean_episode, None)


def test_switch_energy_mutation_needs_a_switched_job(levels, model):
    # The baseline never leaves nominal, so nothing ever switches.
    jobs = [job(i, 100_000) for i in range(4)]
    flat = run_episode(ConstantFrequencyController(levels), jobs, TASK,
                       model)
    with pytest.raises(ValueError, match="no switched job"):
        seed_uncharged_switch_energy(flat, model)


def test_spurious_miss_mutation_needs_an_on_time_job(levels, model):
    too_big = int(levels.nominal.frequency * TASK.deadline * 1.5)
    all_missed = run_episode(ConstantFrequencyController(levels),
                             [job(0, too_big), job(1, too_big)], TASK,
                             model)
    assert all_missed.miss_count == 2
    with pytest.raises(ValueError, match="every job missed"):
        seed_spurious_miss(all_missed)


def test_timeline_gap_mutation_rejects_empty_episode():
    empty = StreamResult(stream=TASK.name, scheme="baseline",
                         deadline=TASK.deadline, outcomes=[], n_offered=0)
    with pytest.raises(ValueError, match="empty"):
        seed_timeline_gap(empty)

"""Invariant-checker tests: clean episodes pass, tampering is caught."""

from dataclasses import replace

import pytest

from repro.check import (
    SCHEME_CAPS,
    InvariantError,
    InvariantViolation,
    capabilities_for,
    check_episode,
)
from repro.dvfs import OracleController
from repro.obs import session
from repro.runtime import run_episode
from repro.serve import StreamResult
from repro.units import DVFS_SWITCH_TIME, MS

from .conftest import TASK, job


def codes(violations):
    return {v.code for v in violations}


def tamper(result, index, **changes):
    """Copy ``result`` with one outcome's fields replaced."""
    outcomes = list(result.outcomes)
    outcomes[index] = outcomes[index]._replace(**changes)
    return replace(result, outcomes=outcomes)


def first_switched(result):
    return next(i for i, o in enumerate(result.outcomes)
                if o.t_switch > 0.0)


def test_clean_episode_has_no_violations(clean_episode, levels, model):
    assert check_episode(clean_episode, energy_model=model,
                         levels=levels) == []


def test_clean_oracle_episode(levels, model):
    jobs = [job(i, int(levels.nominal.frequency * (2 + 3 * (i % 3)) * MS))
            for i in range(9)]
    result = run_episode(OracleController(levels), jobs, TASK, model)
    assert check_episode(result, energy_model=model, levels=levels) == []
    # The capability rule the checker enforces: oracle pays no switch.
    assert all(o.t_switch == 0.0 for o in result.outcomes)


def oracle_episode(levels, model):
    """Nine periodic jobs the oracle serves in planned runs."""
    jobs = [job(i, int(levels.nominal.frequency * (2 + 3 * (i % 3)) * MS))
            for i in range(9)]
    return run_episode(OracleController(levels), jobs, TASK, model)


def test_run_episode_returns_the_served_stream(levels, model):
    result = oracle_episode(levels, model)
    assert isinstance(result, StreamResult)
    assert (result.stream, result.scheme, result.deadline,
            result.n_offered) == (TASK.name, "oracle", TASK.deadline, 9)
    assert result.miss_rate == result.miss_count / 9
    assert result.boost_count == result.switch_count == 0
    assert result.normalized_energy(result) == 1.0
    assert sum(n for _, n in result.epoch_log) == 9


def test_check_episode_audits_the_planned_runs(levels, model):
    result = oracle_episode(levels, model)
    assert check_episode(result, energy_model=model, levels=levels) == []
    (first, n), *rest = result.epoch_log
    assert n >= 2
    # A job decided in two runs, and two runs logged out of order.
    twice = [(first, n), (first + 1, 1)] + rest
    swapped = [(first + 1, n - 1), (first, 1)] + rest
    for log, message in ((twice, "overlaps"), (swapped, "out of order")):
        found = check_episode(replace(result, epoch_log=log),
                              energy_model=model, levels=levels)
        assert codes(found) == {"stream.epoch.overlap"}
        assert any(message in v.message for v in found), found


def test_scheme_caps_cover_all_registered_schemes():
    from repro.experiments import ALL_SCHEMES
    assert set(SCHEME_CAPS) == set(ALL_SCHEMES)
    assert capabilities_for("oracle").charge_overheads is False
    assert capabilities_for("prediction").uses_slice is True
    # Ad-hoc test controllers are unknown: no capability checks.
    assert capabilities_for("fixed") is None


def test_flipped_miss_flag_is_caught(clean_episode, levels, model):
    i = next(i for i, o in enumerate(clean_episode.outcomes)
             if not o.missed)
    bad = tamper(clean_episode, i, missed=True)
    found = check_episode(bad, energy_model=model, levels=levels)
    assert "deadline.miss_flag" in codes(found)


def test_timeline_gap_is_caught(clean_episode, levels, model):
    o = clean_episode.outcomes[5]
    bad = tamper(clean_episode, 5, start=o.start + 1 * MS)
    assert "timeline.start" in codes(
        check_episode(bad, energy_model=model, levels=levels))


def test_off_period_release_is_caught(clean_episode, levels, model):
    o = clean_episode.outcomes[3]
    bad = tamper(clean_episode, 3, release=o.release + 2 * MS)
    assert "timeline.release" in codes(
        check_episode(bad, energy_model=model, levels=levels))


def test_exec_time_tamper_is_caught(clean_episode, levels, model):
    o = clean_episode.outcomes[2]
    bad = tamper(clean_episode, 2, t_exec=o.t_exec * 1.5)
    assert "time.exec" in codes(
        check_episode(bad, energy_model=model, levels=levels))


def test_negative_time_is_caught(clean_episode, levels, model):
    bad = tamper(clean_episode, 1, t_exec=-1e-6)
    assert "time.negative" in codes(
        check_episode(bad, energy_model=model, levels=levels))


def test_energy_tamper_is_caught(clean_episode, levels, model):
    o = clean_episode.outcomes[4]
    bad = tamper(clean_episode, 4, energy=o.energy * 1.001)
    assert "energy.recompute" in codes(
        check_episode(bad, energy_model=model, levels=levels))


def test_energy_check_skipped_without_model(clean_episode, levels):
    o = clean_episode.outcomes[4]
    bad = tamper(clean_episode, 4, energy=o.energy * 1.001)
    # No energy model -> the checker cannot recompute, so it must not
    # guess; only the model-independent identities are enforced.
    assert check_episode(bad, levels=levels) == []


def test_wrong_switch_duration_is_caught(clean_episode, levels, model):
    i = first_switched(clean_episode)
    o = clean_episode.outcomes[i]
    bad = tamper(clean_episode, i, t_switch=o.t_switch / 2)
    assert "switch.charge" in codes(
        check_episode(bad, energy_model=model, levels=levels))


def test_oracle_charged_switch_is_caught(levels, model):
    jobs = [job(0, 100_000), job(1, int(levels.nominal.frequency * 8 * MS))]
    result = run_episode(OracleController(levels), jobs, TASK, model)
    bad = tamper(result, 1, t_switch=DVFS_SWITCH_TIME)
    assert "caps.switch_free" in codes(
        check_episode(bad, levels=levels))


def test_sliceless_scheme_charged_slice_is_caught(clean_episode, levels):
    bad = tamper(clean_episode, 0, t_slice=1 * MS)
    assert "caps.slice_free" in codes(
        check_episode(bad, levels=levels))


def test_violation_renders_code_job_and_values():
    text = str(InvariantViolation(code="time.exec", job_index=3,
                                  message="off", expected=1.0, actual=2.0))
    assert "time.exec" in text and "[job 3]" in text
    assert "expected=1.0" in text and "actual=2.0" in text
    episode_level = str(InvariantViolation(code="x", job_index=None,
                                           message="m"))
    assert "[episode]" in episode_level


def test_invariant_error_counts_and_truncates():
    violations = [InvariantViolation(code=f"c{i}", job_index=i,
                                     message="m") for i in range(25)]
    err = InvariantError(violations)
    assert "25 episode invariant violation(s)" in str(err)
    assert "… and 5 more" in str(err)
    assert len(err.violations) == 25


def test_checker_feeds_obs_counters(clean_episode, levels, model):
    with session() as obs:
        check_episode(clean_episode, energy_model=model, levels=levels)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["check.episodes"] == 1
        assert counters["check.jobs"] == clean_episode.n_offered
        assert "check.violations" not in counters
        bad = tamper(clean_episode, 0, missed=not
                     clean_episode.outcomes[0].missed)
        check_episode(bad, energy_model=model, levels=levels)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["check.violations"] >= 1

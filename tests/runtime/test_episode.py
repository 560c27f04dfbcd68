"""Episode-runner tests: periodic releases, carry-over, aggregation."""

import math
from dataclasses import replace

import pytest

from repro.check import check_episode

from repro.dvfs import (
    ASIC_VOLTAGES,
    AsicVfModel,
    ConstantFrequencyController,
    Controller,
    JobActivity,
    LevelTable,
    OperatingPoint,
    OracleController,
    Plan,
    PredictiveController,
    build_level_table,
)
from repro.runtime import (
    JobRecord,
    Task,
    average_summaries,
    format_table,
    run_episode,
    strict_checks_enabled,
    switch_window_energy,
    summarize,
)
from repro.units import DVFS_SWITCH_TIME, MHZ, MS


class FlatEnergyModel:
    v_nominal = 1.0

    def job_energy(self, activity, point, duration):
        return activity.cycles * 1e-9 * point.voltage ** 2 + 1e-3 * duration


class FixedController(Controller):
    """Always picks a given point; exposes the budgets it was given."""

    def __init__(self, levels, point):
        super().__init__("fixed", levels, t_switch=0.0)
        self.point = point
        self.budgets = []

    def plan(self, job, budget):
        self.budgets.append(budget)
        return Plan(point=self.point)


@pytest.fixture(scope="module")
def levels():
    return build_level_table(AsicVfModel.characterize(100 * MHZ),
                             ASIC_VOLTAGES)


def job(index, cycles):
    return JobRecord(index=index, actual_cycles=cycles,
                     activity=JobActivity(cycles=cycles))


TASK = Task("t", deadline=10 * MS)


def test_job_record_validation():
    with pytest.raises(ValueError, match="at least one cycle"):
        job(0, 0)
    with pytest.raises(ValueError, match="negative"):
        JobRecord(index=0, actual_cycles=1,
                  activity=JobActivity(cycles=1), slice_cycles=-1)
    with pytest.raises(ValueError, match="deadline"):
        Task("t", deadline=0.0)


@pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
def test_task_rejects_a_non_finite_deadline(deadline):
    """NaN passes a bare ``<= 0`` test, and an episode under a NaN
    deadline reported NaN times and no misses."""
    with pytest.raises(ValueError, match="deadline must be finite"):
        Task("t", deadline=deadline)


def test_periodic_release_full_budget_when_on_time(levels):
    ctrl = FixedController(levels, levels.nominal)
    small = int(levels.nominal.frequency * 1 * MS)  # 1ms jobs
    run_episode(ctrl, [job(i, small) for i in range(4)], TASK,
                FlatEnergyModel())
    assert ctrl.budgets == pytest.approx([10 * MS] * 4)


def test_overrun_squeezes_next_budget(levels):
    """A job that overruns its period shrinks the next job's budget —
    the carry-over that makes under-prediction expensive."""
    slowest = levels.slowest
    ctrl = FixedController(levels, slowest)
    # 9ms at nominal => ~27ms at the slowest level: overruns by ~17ms.
    big = int(levels.nominal.frequency * 9 * MS)
    tiny = int(levels.nominal.frequency * 0.1 * MS)
    result = run_episode(ctrl, [job(0, big), job(1, tiny)], TASK,
                         FlatEnergyModel())
    assert result.outcomes[0].missed
    assert ctrl.budgets[0] == 10 * MS
    assert ctrl.budgets[1] < 5 * MS  # squeezed by the overrun


def test_overrun_recovery_restores_budget(levels):
    ctrl = FixedController(levels, levels.nominal)
    over = int(levels.nominal.frequency * 12 * MS)   # misses by 2ms
    small = int(levels.nominal.frequency * 1 * MS)
    run_episode(ctrl, [job(0, over), job(1, small), job(2, small)],
                TASK, FlatEnergyModel())
    assert ctrl.budgets[1] == pytest.approx(8 * MS)   # 2ms late start
    assert ctrl.budgets[2] == pytest.approx(10 * MS)  # recovered


def test_oracle_with_carryover_still_never_misses(levels):
    ctrl = OracleController(levels)
    jobs = [job(i, int(levels.nominal.frequency * (2 + 3 * (i % 3)) * MS))
            for i in range(12)]
    result = run_episode(ctrl, jobs, TASK, FlatEnergyModel())
    assert result.miss_count == 0


def test_exact_fit_jobs_are_not_spuriously_missed():
    """Regression: jobs sized to fill their period exactly used to pick
    up a miss around job 6 — accumulated float rounding in the running
    wall clock pushed the finish a few ULPs past ``release + deadline``.
    The shared epsilon predicate absorbs exactly that slop."""
    deadline = 10 * MS
    cycles = 999_900
    table = LevelTable([OperatingPoint(1.0, cycles / deadline)])
    result = run_episode(OracleController(table),
                         [job(i, cycles) for i in range(8)],
                         Task("exact", deadline=deadline),
                         FlatEnergyModel())
    assert result.miss_count == 0
    # The fit really is exact: every budget is fully consumed.
    for o in result.outcomes:
        assert o.t_exec == pytest.approx(deadline, rel=1e-12)


def test_switch_window_charges_leakage(levels):
    ctrl = FixedController(levels, levels.slowest)
    result = run_episode(ctrl, [job(0, 200_000), job(1, 200_000)], TASK,
                         FlatEnergyModel(), t_switch=100e-6)
    first, second = result.outcomes
    # Job 0 leaves the nominal idle point: it pays the switch window
    # and the window's leakage (FlatEnergyModel leaks 1e-3 W flat).
    assert first.t_switch == 100e-6
    assert second.t_switch == 0.0
    v = levels.slowest.voltage
    expected = 200_000 * 1e-9 * v * v + 1e-3 * (first.t_exec + 100e-6)
    assert first.energy == pytest.approx(expected, rel=1e-12)
    assert first.energy - second.energy == pytest.approx(1e-3 * 100e-6,
                                                         rel=1e-9)


def test_switch_window_energy_helper(levels):
    model = FlatEnergyModel()
    assert switch_window_energy(model, levels.nominal, 0.0) == 0.0
    assert switch_window_energy(model, levels.nominal, -1.0) == 0.0
    assert switch_window_energy(model, levels.nominal, 2e-4) \
        == pytest.approx(1e-3 * 2e-4)


def test_strict_mode_accepts_a_clean_episode(levels):
    jobs = [job(i, int(levels.nominal.frequency * (2 + (i % 3)) * MS))
            for i in range(6)]
    result = run_episode(OracleController(levels), jobs, TASK,
                         FlatEnergyModel(), strict=True)
    assert result.n_offered == 6


def test_slice_scheme_falls_back_on_a_missing_prediction(levels):
    """A record with no prediction under a slice scheme falls back, as
    in any stream: the fastest non-boost point and no slice.  The
    strict checker holds it to the fallback rule."""
    small = int(levels.nominal.frequency * 2 * MS)
    predicted = replace(job(0, small), predicted_cycles=float(small),
                        slice_cycles=100)
    jobs = [predicted, job(1, small), replace(predicted, index=2)]
    model = FlatEnergyModel()
    result = run_episode(PredictiveController(levels, DVFS_SWITCH_TIME),
                         jobs, TASK, model, slice_energy_model=model,
                         strict=True)
    assert [o.status for o in result.outcomes] \
        == ["completed", "fallback", "completed"]
    fallback = result.outcomes[1]
    assert fallback.t_slice == 0.0
    assert fallback.frequency == levels.fastest().frequency
    outcomes = list(result.outcomes)
    outcomes[1] = fallback._replace(t_slice=1e-4)
    tampered = replace(result, outcomes=outcomes)
    assert "stream.fallback" in {
        v.code for v in check_episode(tampered, levels=levels)}


def test_strict_mode_env_toggle(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    assert not strict_checks_enabled()
    for value in ("1", "true", "STRICT"):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert strict_checks_enabled()
    monkeypatch.setenv("REPRO_CHECK", "0")
    assert not strict_checks_enabled()


def test_summaries_and_formatting(levels):
    jobs = [job(i, 100_000 + 50_000 * i) for i in range(6)]
    base = run_episode(ConstantFrequencyController(levels), jobs, TASK,
                       FlatEnergyModel())
    oracle = run_episode(OracleController(levels), jobs, TASK,
                         FlatEnergyModel())
    s1 = summarize("bench1", oracle, base)
    s2 = summarize("bench2", oracle, base)
    assert s1.energy_savings_pct > 0
    avg = average_summaries([s1, s2], "oracle")
    assert avg.benchmark == "average"
    text = format_table([s1, s2, avg])
    assert "bench1" in text and "oracle:energy%" in text
    with pytest.raises(ValueError, match="no summaries"):
        average_summaries([s1], "nope")

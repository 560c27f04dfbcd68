"""Controller and episode-runner tests."""

import numpy as np
import pytest

from repro.dvfs import (
    ASIC_VOLTAGES,
    AsicVfModel,
    ConstantFrequencyController,
    Controller,
    HistoryController,
    JobActivity,
    OperatingPoint,
    OracleController,
    PidController,
    PredictiveController,
    TableBasedController,
    build_level_table,
)
from repro.runtime import JobRecord, Task, run_episode
from repro.serve import (
    AcceleratorStream,
    RecordPredictor,
    ServeConfig,
    serve_stream,
)
from repro.serve.stream import stream_from_records
from repro.units import DVFS_SWITCH_TIME, MHZ, MS


class FlatEnergyModel:
    """Deterministic test double: E = cycles * V^2 + 1e-3 W leakage."""

    v_nominal = 1.0

    def job_energy(self, activity, point, duration):
        vr = point.voltage
        return activity.cycles * 1e-9 * vr * vr + 1e-3 * duration


@pytest.fixture(scope="module")
def levels():
    vf = AsicVfModel.characterize(250 * MHZ)
    return build_level_table(vf, ASIC_VOLTAGES)


def job(index, cycles, predicted=None, slice_cycles=0, coarse=0):
    return JobRecord(
        index=index,
        actual_cycles=cycles,
        activity=JobActivity(cycles=cycles),
        predicted_cycles=predicted,
        slice_cycles=slice_cycles,
        coarse_param=coarse,
    )


TASK = Task("test", deadline=16.7 * MS)


def test_baseline_always_nominal(levels):
    ctrl = ConstantFrequencyController(levels)
    plan = ctrl.plan(job(0, 100), TASK.deadline)
    assert plan.point == levels.nominal
    assert plan.t_slice == 0.0


def test_oracle_picks_lowest_feasible_and_never_misses(levels):
    ctrl = OracleController(levels)
    jobs = [job(i, int(1e6 + 3e5 * i)) for i in range(10)]
    result = run_episode(ctrl, jobs, TASK, FlatEnergyModel())
    assert result.miss_count == 0
    # Small jobs get the slowest level.
    assert result.outcomes[0].voltage == levels.slowest.voltage


def test_oracle_charges_no_switch_time(levels):
    ctrl = OracleController(levels)
    jobs = [job(0, 100_000), job(1, 4_000_000)]  # forces a level change
    result = run_episode(ctrl, jobs, TASK, FlatEnergyModel())
    assert all(o.t_switch == 0.0 for o in result.outcomes)


def test_predictive_requires_prediction(levels):
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME)
    with pytest.raises(ValueError, match="no prediction"):
        ctrl.plan(job(0, 100), TASK.deadline)


def test_predictive_uses_margin_and_overheads(levels):
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME, margin=0.05)
    f0 = levels.nominal.frequency
    # Predicted to need ~exactly the slowest level without margin;
    # margin+overheads must push the choice one level up.
    slowest_f = levels.slowest.frequency
    cycles = int(slowest_f * (TASK.deadline) * 0.99)
    plan = ctrl.plan(job(0, cycles, predicted=cycles,
                         slice_cycles=int(0.03 * f0 * TASK.deadline)),
                     TASK.deadline)
    assert plan.point.frequency > slowest_f


def test_predictive_slice_time_accounted(levels):
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME)
    f0 = levels.nominal.frequency
    slice_cycles = int(f0 * 1 * MS)
    plan = ctrl.plan(job(0, 1000, predicted=1000.0,
                         slice_cycles=slice_cycles), TASK.deadline)
    assert plan.t_slice == pytest.approx(1 * MS, rel=1e-4)


def test_predictive_no_overhead_variant(levels):
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME,
                                charge_overheads=False)
    plan = ctrl.plan(job(0, 1000, predicted=1000.0, slice_cycles=10_000),
                     TASK.deadline)
    assert plan.t_slice == 0.0
    assert ctrl.name == "prediction_no_overhead"


def test_predictive_boost_engages_when_budget_too_short(levels):
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME, boost=True)
    f0 = levels.nominal.frequency
    # Prediction that cannot be met at nominal after overheads.
    cycles = int(f0 * TASK.deadline * 1.01)
    plan = ctrl.plan(job(0, cycles, predicted=float(cycles)), TASK.deadline)
    assert plan.point.is_boost


def test_predictive_name_covers_all_four_flag_combinations(levels):
    """Regression: ``boost=True, charge_overheads=False`` used to
    collide with the plain no-overhead variant, merging two schemes
    into one row of every summary table."""
    assert PredictiveController(levels, DVFS_SWITCH_TIME).name \
        == "prediction"
    assert PredictiveController(levels, DVFS_SWITCH_TIME,
                                boost=True).name == "prediction_boost"
    assert PredictiveController(levels, DVFS_SWITCH_TIME,
                                charge_overheads=False).name \
        == "prediction_no_overhead"
    both = PredictiveController(levels, DVFS_SWITCH_TIME, boost=True,
                                charge_overheads=False)
    assert both.name == "prediction_boost_no_overhead"
    assert both.boost and not both.charge_overheads
    assert not both.uses_slice  # overhead-free variants drop the slice


def test_table_controller_rejects_empty_training(levels):
    with pytest.raises(ValueError, match="empty training set"):
        TableBasedController.from_training(levels, DVFS_SWITCH_TIME, [])


def test_pid_controller_first_job_nominal_then_adapts(levels):
    ctrl = PidController(levels, DVFS_SWITCH_TIME)
    assert ctrl.plan(job(0, 1000), TASK.deadline).point == levels.nominal
    small = 100_000
    for i in range(10):
        ctrl.observe(job(i, small))
    plan = ctrl.plan(job(11, small), TASK.deadline)
    assert plan.point.frequency < levels.nominal.frequency


def test_pid_controller_reset_clears_history(levels):
    ctrl = PidController(levels, DVFS_SWITCH_TIME)
    ctrl.observe(job(0, 100_000))
    ctrl.reset()
    assert ctrl.plan(job(1, 100), TASK.deadline).point == levels.nominal


def test_history_controller_window(levels):
    ctrl = HistoryController(levels, DVFS_SWITCH_TIME, window=2)
    assert ctrl.plan(job(0, 1), TASK.deadline).point == levels.nominal
    ctrl.observe(job(0, 1_000_000))
    ctrl.observe(job(1, 2_000_000))
    ctrl.observe(job(2, 4_000_000))  # evicts the first observation
    plan = ctrl.plan(job(3, 1), TASK.deadline)
    # Average of last two = 3M cycles + 10% margin.
    expected_f = 3_000_000 * 1.1 / (TASK.deadline - DVFS_SWITCH_TIME)
    assert plan.point == levels.lowest_meeting(expected_f)
    with pytest.raises(ValueError):
        HistoryController(levels, 0.0, window=0)


def test_table_controller_worst_case_per_class(levels):
    training = [job(0, 1_000_000, coarse=1), job(1, 3_000_000, coarse=1),
                job(2, 200_000, coarse=2)]
    ctrl = TableBasedController.from_training(
        levels, DVFS_SWITCH_TIME, training)
    plan_big = ctrl.plan(job(3, 500, coarse=1), TASK.deadline)
    plan_small = ctrl.plan(job(4, 500, coarse=2), TASK.deadline)
    assert plan_big.point.frequency > plan_small.point.frequency
    # Unknown class: conservative nominal.
    assert ctrl.plan(job(5, 1, coarse=99), TASK.deadline).point \
        == levels.nominal


def _vectorizable_controllers(levels):
    training = [job(0, 1_000_000, coarse=1), job(1, 3_000_000, coarse=1),
                job(2, 200_000, coarse=2)]
    return [ConstantFrequencyController(levels, DVFS_SWITCH_TIME),
            TableBasedController.from_training(levels, DVFS_SWITCH_TIME,
                                               training),
            *(PredictiveController(levels, DVFS_SWITCH_TIME, boost=boost,
                                   charge_overheads=charge)
              for boost in (False, True) for charge in (True, False)),
            OracleController(levels)]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_vectorizable_controller_is_covered(levels):
    covered = {type(c) for c in _vectorizable_controllers(levels)}
    assert covered == {c for c in _all_subclasses(Controller)
                       if c.vectorizable
                       and c.__module__.startswith("repro.")}


@pytest.mark.parametrize("name", [
    "baseline", "table", "prediction", "prediction_no_overhead",
    "prediction_boost", "prediction_boost_no_overhead", "oracle"])
def test_plan_batch_equals_plan_field_by_field(levels, name):
    """Each job's entry of ``plan_batch`` is the ``Plan`` that ``plan``
    returns for it alone: the point, ``t_slice``, ``feasible`` and the
    exact ``f_required``, over feasible, boost-only and infeasible
    jobs, budgets the overheads consume, and (for the table) a coarse
    class missing from the table."""
    (ctrl,) = [c for c in _vectorizable_controllers(levels)
               if c.name == name]
    cycles = (100_000, 1_000_000, 2_500_000, 4_100_000, 4_400_000,
              9_000_000)
    budgets = (TASK.deadline, 4 * MS, 0.2 * MS, 1e-6)
    jobs, job_budgets = [], []
    for cycle in cycles:
        for budget in budgets:
            for coarse in (1, 2, 99):
                n = len(jobs)
                jobs.append(job(n, cycle, predicted=cycle * 1.02 - 7.0,
                                slice_cycles=40_000 + n, coarse=coarse))
                job_budgets.append(budget)
    batch = ctrl.plan_batch(jobs, np.array(job_budgets))
    assert ctrl.vectorizable and batch is not None
    assert len(batch.level_index) == len(jobs)
    kinds = set()
    for i, (record, budget) in enumerate(zip(jobs, job_budgets)):
        plan = ctrl.plan(record, budget)
        assert levels.indexed[batch.level_index[i]] is plan.point, i
        assert batch.t_slice[i] == plan.t_slice, i
        assert batch.feasible[i] == plan.feasible, i
        assert batch.f_required[i] == plan.f_required, i
        kinds.add((plan.point.is_boost, plan.feasible))
    if "boost" in name:
        assert {(False, True), (True, True), (True, False)} <= kinds
    elif name not in ("baseline", "table"):
        assert {(False, True), (False, False)} <= kinds


def test_plan_batch_declines_a_record_without_a_prediction(levels):
    """Prediction without overheads declines the block when a record
    carries no prediction, so the scalar path raises ``plan``'s
    diagnostic."""
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME,
                                charge_overheads=False)
    jobs = [job(0, 1000, predicted=1000.0), job(1, 1000)]
    budgets = np.full(2, TASK.deadline)
    assert ctrl.plan_batch(jobs, budgets) is None
    assert ctrl.plan_batch(jobs[:1], budgets[:1]) is not None
    with pytest.raises(ValueError, match="carries no prediction"):
        ctrl.plan(jobs[1], TASK.deadline)


def test_episode_switch_charged_only_on_changes(levels):
    ctrl = OracleController(levels)
    ctrl.charge_overheads = True  # force switch accounting for the test
    jobs = [job(0, 100_000), job(1, 100_000), job(2, 4_000_000)]
    result = run_episode(ctrl, jobs, TASK, FlatEnergyModel(),
                         t_switch=100e-6)
    switches = [o.t_switch for o in result.outcomes]
    assert switches[0] > 0  # leaving the nominal idle point
    assert switches[1] == 0.0  # same level as previous job
    assert switches[2] > 0  # level change


def test_episode_miss_detection(levels):
    ctrl = ConstantFrequencyController(levels)
    too_big = int(levels.nominal.frequency * TASK.deadline * 1.1)
    result = run_episode(ctrl, [job(0, too_big)], TASK, FlatEnergyModel())
    assert result.miss_count == 1
    assert result.miss_rate == 1.0


def test_episode_slice_energy_requires_model(levels):
    """A scheme that runs a slice needs a slice energy model: the
    episode, a served stream's block plan and its scalar machine all
    raise the one diagnostic, naming their owner."""
    ctrl = PredictiveController(levels, DVFS_SWITCH_TIME)
    jobs = [job(0, 1000, predicted=1000.0, slice_cycles=100)]
    with pytest.raises(ValueError, match="slice energy model"):
        run_episode(ctrl, jobs, TASK, FlatEnergyModel())
    result = run_episode(ctrl, jobs, TASK, FlatEnergyModel(),
                         slice_energy_model=FlatEnergyModel())
    assert result.total_energy > 0

    records = [job(i, 1000, predicted=1000.0, slice_cycles=100)
               for i in range(4)]
    # Spaced arrivals are uncoupled, so the block plan prices them; a
    # burst under a prediction budget is coupled and runs on the
    # scalar machine only.
    for arrivals, budget in (([i * TASK.deadline for i in range(4)], None),
                             ([0.0] * 4, 1.0)):
        stream = AcceleratorStream(
            "c", PredictiveController(levels, DVFS_SWITCH_TIME),
            FlatEnergyModel(), predictor=RecordPredictor(),
            config=ServeConfig(deadline=TASK.deadline,
                               prediction_budget=budget))
        with pytest.raises(ValueError, match="^stream c runs a slice but "
                           "has no slice energy model$"):
            serve_stream(stream, stream_from_records(records, arrivals))


def test_episode_normalized_energy(levels):
    jobs = [job(i, 500_000 + 100_000 * i) for i in range(20)]
    baseline = run_episode(ConstantFrequencyController(levels), jobs, TASK,
                           FlatEnergyModel())
    oracle = run_episode(OracleController(levels), jobs, TASK,
                         FlatEnergyModel())
    ratio = oracle.normalized_energy(baseline)
    assert 0.0 < ratio < 1.0  # DVFS saves energy
    with pytest.raises(ValueError, match="job count"):
        oracle.normalized_energy(run_episode(
            ConstantFrequencyController(levels), jobs[:5], TASK,
            FlatEnergyModel()))

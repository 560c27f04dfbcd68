"""Episode timeline tests: periodic releases and overrun carry-over.

The timeline is read off ``run_episode``'s outcomes (``release``,
``start``, ``finish``), which record it once as the runner computes it.
"""

import pytest

from repro.dvfs import (
    ASIC_VOLTAGES,
    AsicVfModel,
    ConstantFrequencyController,
    JobActivity,
    OracleController,
    build_level_table,
)
from repro.runtime import JobRecord, Task, run_episode
from repro.units import MHZ, MS


class FlatEnergyModel:
    v_nominal = 1.0

    def job_energy(self, activity, point, duration):
        return activity.cycles * 1e-9 * point.voltage ** 2 + 1e-3 * duration


@pytest.fixture(scope="module")
def levels():
    return build_level_table(AsicVfModel.characterize(200 * MHZ),
                             ASIC_VOLTAGES)


def job(index, cycles):
    return JobRecord(index=index, actual_cycles=cycles,
                     activity=JobActivity(cycles=cycles))


TASK = Task("t", deadline=10 * MS)


def test_trace_reconstructs_periodic_releases(levels):
    small = int(levels.nominal.frequency * 1 * MS)
    episode = run_episode(OracleController(levels),
                          [job(i, small) for i in range(4)], TASK,
                          FlatEnergyModel())
    for i, o in enumerate(episode.outcomes):
        assert o.release == pytest.approx(i * TASK.deadline)
        assert o.start == pytest.approx(o.release)
        assert o.finish <= o.release + TASK.deadline + 1e-12
        assert not o.missed


def test_trace_shows_carryover_on_overrun(levels):
    over = int(levels.nominal.frequency * 12 * MS)  # misses by 2ms
    small = int(levels.nominal.frequency * 1 * MS)
    episode = run_episode(ConstantFrequencyController(levels),
                          [job(0, over), job(1, small)], TASK,
                          FlatEnergyModel())
    first, second = episode.outcomes
    assert first.missed
    assert second.start > second.release  # delayed by the overrun
    assert second.start == first.finish


def test_queued_equals_carryover_delay(levels):
    """A late start is exactly the predecessor's overrun carried over,
    and a short job clears it."""
    over = int(levels.nominal.frequency * 12 * MS)  # 2 ms past deadline
    small = int(levels.nominal.frequency * 1 * MS)
    episode = run_episode(ConstantFrequencyController(levels),
                          [job(0, over), job(1, small), job(2, small),
                           job(3, small)],
                          TASK, FlatEnergyModel())
    outcomes = episode.outcomes
    queued = [o.start - o.release for o in outcomes]
    assert queued[0] == 0.0  # accelerator idle at release
    overrun = outcomes[0].finish - (outcomes[0].release + TASK.deadline)
    assert overrun == pytest.approx(2 * MS)
    assert queued[1] == pytest.approx(overrun)
    for o, q in zip(outcomes[2:], queued[2:]):  # job 1 was short
        assert q == 0.0  # carry-over gone
        assert o.finish <= o.release + TASK.deadline
        assert not o.missed

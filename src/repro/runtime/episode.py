"""Episode runner: a controller driving an accelerator over a workload.

Per job (Fig 4 of the paper): run the prediction slice (if the scheme
uses one), switch voltage/frequency if the level changed, execute the
job, check the deadline, and integrate energy.  All times and energies
come from the precomputed :class:`JobRecord` ground truth plus the
energy model — the controller only chooses levels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..dvfs.energy import EnergyModel, JobActivity
from ..obs import get_observer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..dvfs.controllers import Controller
    from ..dvfs.levels import OperatingPoint
from ..units import DVFS_SWITCH_TIME, deadline_missed
from .jobs import JobOutcome, JobRecord, Task

#: Zero-activity placeholder: running ``job_energy`` with it prices a
#: window where the accelerator is powered but does no work (leakage
#: only, for any energy model that follows the ``job_energy`` protocol).
_IDLE_ACTIVITY = JobActivity(cycles=0)


def switch_window_energy(energy_model: EnergyModel,
                         point: "object", duration: float) -> float:
    """Leakage energy of holding ``point`` over a DVFS switch window.

    The switch costs wall time, and powered silicon leaks for all of
    it — pricing the window as a zero-activity job charges exactly the
    leakage term at the destination point's voltage.  Shared by
    :func:`charge_job` and the invariant checker so their accounting
    can never drift apart.
    """
    if duration <= 0.0:
        return 0.0
    return energy_model.job_energy(_IDLE_ACTIVITY, point, duration)


def charge_job(record: JobRecord, point: "OperatingPoint",
               t_slice: float, t_switch: float,
               energy_model: EnergyModel,
               slice_energy_model: Optional[EnergyModel],
               nominal: "OperatingPoint", uses_slice: bool,
               owner: str) -> Tuple[float, float]:
    """Price one job at ``point``: ``(t_exec, energy)``.

    Execution over ``actual_cycles / frequency``, leakage over the
    switch window ``t_switch``, and — when the scheme runs a slice —
    the slice's energy at ``nominal`` over ``t_slice`` (Sec. 3.6 and
    4.1 of the paper).  Every runner prices its jobs here, so their
    energies agree bit for bit; ``owner`` names the runner in the
    missing-slice-model diagnostic.
    """
    t_exec = record.actual_cycles / point.frequency
    energy = energy_model.job_energy(record.activity, point, t_exec)
    # The switch window adds wall time, so it must add leakage too —
    # otherwise switching is time-expensive yet energy-free and the
    # scheme comparison under-charges switch-happy controllers.
    energy += switch_window_energy(energy_model, point, t_switch)
    if uses_slice and t_slice > 0.0:
        if slice_energy_model is None:
            raise ValueError(
                f"{owner} runs a slice but has no slice energy model")
        energy += slice_energy_model.job_energy(
            JobActivity(cycles=record.slice_cycles), nominal, t_slice)
    return t_exec, energy


def strict_checks_enabled() -> bool:
    """Whether ``REPRO_CHECK`` asks for post-episode invariant checks."""
    return os.environ.get("REPRO_CHECK", "").lower() in (
        "1", "true", "strict")


@dataclass
class EpisodeResult:
    """All job outcomes of one controller run, with aggregates."""

    controller: str
    task: Task
    outcomes: List[JobOutcome]

    @property
    def n_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def total_energy(self) -> float:
        return sum(o.energy for o in self.outcomes)

    @property
    def miss_count(self) -> int:
        return sum(1 for o in self.outcomes if o.missed)

    @property
    def miss_rate(self) -> float:
        return self.miss_count / self.n_jobs if self.outcomes else 0.0

    @property
    def boost_count(self) -> int:
        return sum(1 for o in self.outcomes if o.boosted)

    @property
    def switch_count(self) -> int:
        """Jobs that paid a DVFS switch (charged schemes only)."""
        return sum(1 for o in self.outcomes if o.t_switch > 0.0)

    def normalized_energy(self, baseline: "EpisodeResult") -> float:
        """Energy as a fraction of a baseline run (same jobs)."""
        if baseline.n_jobs != self.n_jobs:
            raise ValueError("baseline ran a different job count")
        base = baseline.total_energy
        if base <= 0:
            raise ValueError("baseline energy must be positive")
        return self.total_energy / base


def run_episode(controller: "Controller",
                jobs: Sequence[JobRecord],
                task: Task,
                energy_model: EnergyModel,
                slice_energy_model: Optional[EnergyModel] = None,
                t_switch: float = DVFS_SWITCH_TIME,
                strict: Optional[bool] = None) -> EpisodeResult:
    """Run ``jobs`` under ``controller`` and account time and energy.

    Jobs are released periodically (Fig 1 of the paper): job *i* may
    start at ``i * deadline`` and must finish by ``(i+1) * deadline``.
    A job that overruns its period delays the next job's start, which
    shrinks that job's budget — so one under-prediction forces the
    following job to a high (expensive) level.

    ``slice_energy_model`` prices the prediction slice's execution (at
    nominal voltage); required when the controller runs a slice.

    ``strict=True`` replays the finished episode through the invariant
    checker (:mod:`repro.check`) and raises
    :class:`~repro.check.InvariantError` on any accounting violation;
    ``None`` defers to the ``REPRO_CHECK`` environment variable.
    """
    controller.reset()
    levels = controller.levels
    nominal = levels.nominal
    previous = nominal  # the accelerator idles at nominal before job 0
    outcomes: List[JobOutcome] = []
    now = 0.0
    observer = get_observer()  # None keeps the per-job cost at one test
    switch_count = 0
    owner = f"controller {controller.name}"

    for index, job in enumerate(jobs):
        release = index * task.deadline
        start = max(now, release)
        budget = release + task.deadline - start
        plan = controller.plan(job, budget)
        point = plan.point

        t_slice = plan.t_slice
        switch_needed = point != previous and controller.charge_overheads
        t_switch_actual = t_switch if switch_needed else 0.0
        t_exec, energy = charge_job(
            job, point, t_slice, t_switch_actual, energy_model,
            slice_energy_model, nominal, controller.uses_slice, owner)
        total = t_slice + t_switch_actual + t_exec
        missed = deadline_missed(start + total, release, task.deadline)
        now = start + total
        if switch_needed:
            switch_count += 1

        outcomes.append(JobOutcome(
            job=job,
            voltage=point.voltage,
            frequency=point.frequency,
            boosted=point.is_boost,
            t_slice=t_slice,
            t_switch=t_switch_actual,
            t_exec=t_exec,
            energy=energy,
            missed=missed,
            release=release,
            start=start,
        ))
        previous = point
        controller.observe(job)

        if observer is not None:
            slack = release + task.deadline - now
            observer.emit(
                "job",
                controller=controller.name, task=task.name,
                index=job.index,
                predicted_cycles=job.predicted_cycles,
                actual_cycles=job.actual_cycles,
                voltage=point.voltage, frequency=point.frequency,
                slack=slack, missed=missed,
                boosted=point.is_boost, switched=switch_needed,
                t_slice=t_slice, t_exec=t_exec, energy=energy,
            )
            observer.metrics.observe("episode.slack_ms", slack * 1e3)

    if observer is not None:
        observer.metrics.inc("episode.jobs", len(outcomes))
        observer.metrics.inc(
            "episode.misses", sum(1 for o in outcomes if o.missed))
        observer.metrics.inc("episode.switches", switch_count)
        observer.emit(
            "episode",
            controller=controller.name, task=task.name,
            n_jobs=len(outcomes),
            energy=sum(o.energy for o in outcomes),
            misses=sum(1 for o in outcomes if o.missed),
            switches=switch_count,
        )

    result = EpisodeResult(controller=controller.name, task=task,
                           outcomes=outcomes)
    if strict is None:
        strict = strict_checks_enabled()
    if strict:
        # Imported lazily: repro.check depends on this module.
        from ..check import InvariantError, check_episode
        violations = check_episode(
            result,
            energy_model=energy_model,
            slice_energy_model=slice_energy_model,
            levels=levels,
            t_switch=t_switch,
            uses_slice=controller.uses_slice,
            charge_overheads=controller.charge_overheads,
        )
        if violations:
            raise InvariantError(violations)
    return result

"""Episode runner: a controller driving an accelerator over a workload.

Per job (Fig 4 of the paper): run the prediction slice (if the scheme
uses one), switch voltage/frequency if the level changed, execute the
job, check the deadline, and integrate energy.  All times and energies
come from the precomputed :class:`JobRecord` ground truth plus the
energy model — the controller only chooses levels.  An episode is a
periodic stream, so :func:`run_episode` hands its jobs to the serving
machine (:mod:`repro.serve`), which prices every job through
:func:`~repro.runtime.jobs.charge_job`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dvfs.controllers import Controller
from ..dvfs.energy import EnergyModel
from ..serve.server import AcceleratorStream, RecordPredictor, \
    ServeConfig, StreamOutcome, serve_stream
from ..serve.stream import StreamJob
from ..units import DVFS_SWITCH_TIME
from .jobs import JobRecord, Task, strict_checks_enabled


@dataclass
class EpisodeResult:
    """All job outcomes of one controller run, with aggregates."""

    controller: str
    task: Task
    outcomes: List[StreamOutcome]

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


def run_episode(controller: Controller,
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

    The episode is served as one stream by
    :func:`~repro.serve.server.serve_stream`: arrivals at
    ``i * deadline``, the records' own predictions replayed, and a
    queue no backlog can fill, so no job is shed.  A job with no valid
    prediction under a slice scheme falls back, as in any stream.

    ``slice_energy_model`` prices the prediction slice's execution (at
    nominal voltage); required when the controller runs a slice.

    ``strict=True`` replays the finished episode through the invariant
    checker (:mod:`repro.check`) and raises
    :class:`~repro.check.InvariantError` on any accounting violation;
    ``None`` defers to the ``REPRO_CHECK`` environment variable.
    """
    deadline = task.deadline
    stream = AcceleratorStream(
        task.name, controller, energy_model,
        slice_energy_model=slice_energy_model,
        predictor=RecordPredictor(),
        config=ServeConfig(deadline=deadline, t_switch=t_switch,
                           queue_depth=max(len(jobs), 1), strict=False))
    served = serve_stream(stream, [StreamJob(i, job, i * deadline)
                                   for i, job in enumerate(jobs)])
    result = EpisodeResult(controller=controller.name, task=task,
                           outcomes=served.outcomes)
    if strict is None:
        strict = strict_checks_enabled()
    if strict:
        # Imported lazily: repro.check depends on this module.
        from ..check import InvariantError, check_episode, check_epochs
        violations = check_episode(
            result,
            energy_model=energy_model,
            slice_energy_model=slice_energy_model,
            levels=controller.levels,
            t_switch=t_switch,
            uses_slice=controller.uses_slice,
            charge_overheads=controller.charge_overheads,
        ) + check_epochs(served, stream.epoch_log)
        if violations:
            raise InvariantError(violations)
    return result

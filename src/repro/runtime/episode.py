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

from typing import Optional, Sequence

from ..dvfs.controllers import Controller
from ..dvfs.energy import EnergyModel
from ..serve.server import AcceleratorStream, RecordPredictor, \
    ServeConfig, StreamResult, serve_stream
from ..serve.stream import StreamJob
from ..units import DVFS_SWITCH_TIME
from .jobs import JobRecord, Task, strict_checks_enabled


def run_episode(controller: Controller,
                jobs: Sequence[JobRecord],
                task: Task,
                energy_model: EnergyModel,
                slice_energy_model: Optional[EnergyModel] = None,
                t_switch: float = DVFS_SWITCH_TIME,
                strict: Optional[bool] = None) -> StreamResult:
    """Run ``jobs`` under ``controller`` and account time and energy.

    Jobs are released periodically (Fig 1 of the paper): job *i* may
    start at ``i * deadline`` and must finish by ``(i+1) * deadline``.
    A job that overruns its period delays the next job's start, which
    shrinks that job's budget — so one under-prediction forces the
    following job to a high (expensive) level.

    The episode is served as one stream by
    :func:`~repro.serve.server.serve_stream`, whose
    :class:`~repro.serve.server.StreamResult` it returns: arrivals at
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
    result = serve_stream(stream, [StreamJob(i, job, i * deadline)
                                   for i, job in enumerate(jobs)])
    if strict is None:
        strict = strict_checks_enabled()
    if strict:
        # Imported lazily: repro.check imports the runtime package.
        from ..check import InvariantError, check_episode
        violations = check_episode(
            result,
            energy_model=energy_model,
            slice_energy_model=slice_energy_model,
            levels=controller.levels,
            t_switch=t_switch,
            uses_slice=controller.uses_slice,
            charge_overheads=controller.charge_overheads,
        )
        if violations:
            raise InvariantError(violations)
    return result

"""Job and task bookkeeping (Sec. 2.2 of the paper).

A *task* is a piece of work with an associated deadline (decoding one
frame); a *job* is a dynamic instance of a task.  ``JobRecord`` carries
everything the runtime needs about one job: the ground-truth execution
cycles (from RTL simulation), the recorded feature vector, the
slice-based prediction, and switching-activity data for the energy
model.  Controllers only see the fields their strategy is entitled to
(the oracle reads ``actual_cycles``; the predictive controller reads
``predicted_cycles``; PID sees nothing until the job retires).

:func:`charge_job` is the one pricing kernel: the serving machine
(:mod:`repro.serve`), which runs every episode and stream, prices each
job's time and energy through it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..dvfs.energy import EnergyModel, JobActivity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dvfs.levels import OperatingPoint


@dataclass(frozen=True)
class Task:
    """A deadline-bearing piece of work."""

    name: str
    deadline: float  # seconds per job

    def __post_init__(self) -> None:
        # isfinite, because NaN passes a bare `<= 0` test: a NaN
        # deadline would report NaN times and no misses.
        if not (math.isfinite(self.deadline) and self.deadline > 0):
            raise ValueError(f"task {self.name!r}: deadline must be "
                             f"finite and > 0, got {self.deadline!r}")


@dataclass(frozen=True)
class JobRecord:
    """One job's ground truth plus precomputed predictor outputs."""

    index: int
    actual_cycles: int
    activity: JobActivity
    features: Optional[np.ndarray] = None
    predicted_cycles: Optional[float] = None
    slice_cycles: int = 0
    coarse_param: int = 0

    def __post_init__(self) -> None:
        if self.actual_cycles <= 0:
            raise ValueError("jobs must take at least one cycle")
        if self.slice_cycles < 0:
            raise ValueError("slice cycles cannot be negative")


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
    4.1 of the paper).  The serving machine and its block planner both
    price their jobs here, so their energies agree bit for bit;
    ``owner`` names the stream in the missing-slice-model diagnostic.
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

"""Job and task bookkeeping (Sec. 2.2 of the paper).

A *task* is a piece of work with an associated deadline (decoding one
frame); a *job* is a dynamic instance of a task.  ``JobRecord`` carries
everything the runtime needs about one job: the ground-truth execution
cycles (from RTL simulation), the recorded feature vector, the
slice-based prediction, and switching-activity data for the energy
model.  Controllers only see the fields their strategy is entitled to
(the oracle reads ``actual_cycles``; the predictive controller reads
``predicted_cycles``; PID sees nothing until the job retires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..dvfs.energy import JobActivity


@dataclass(frozen=True)
class Task:
    """A deadline-bearing piece of work."""

    name: str
    deadline: float  # seconds per job

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")


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


@dataclass(frozen=True)
class JobOutcome:
    """What happened when one job ran under a controller.

    ``release`` and ``start`` pin the job to the wall clock as the
    episode runner computed it — carry-over from an overrunning
    predecessor makes ``start > release``.  Recording them here (once,
    in ``run_episode``) is what lets the invariant checker and the
    golden traces read the timeline without re-deriving it.
    """

    job: JobRecord
    voltage: float
    frequency: float
    boosted: bool
    t_slice: float
    t_switch: float
    t_exec: float
    energy: float
    missed: bool
    release: float = 0.0
    start: float = 0.0

    @property
    def total_time(self) -> float:
        return self.t_slice + self.t_switch + self.t_exec

    @property
    def finish(self) -> float:
        """Wall-clock completion time (start plus all time spent)."""
        return self.start + self.total_time

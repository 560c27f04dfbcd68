"""DVFS controllers: the paper's evaluated schemes plus extras.

Each controller picks an operating point per job.  The schemes match
Sec. 4.2:

* :class:`ConstantFrequencyController` — the ``baseline``: nominal V/f.
* :class:`TableBasedController` — Exynos-MFC-style lookup keyed on a
  coarse parameter (Sec. 2.4), set to the training worst case.
* :class:`PidController` — reactive control with tuned gains and a 10%
  margin.
* :class:`HistoryController` — moving-average reactive control [10,18].
* :class:`PredictiveController` — the paper's scheme: slice-based
  prediction, 5% margin, slice/switch overheads deducted from the
  budget; optional boost level (Fig 14) and an overhead-free variant
  (Fig 13).
* :class:`OracleController` — perfect prediction, no overheads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, NamedTuple, Optional,
                    Sequence)

import numpy as np

from .dvfs_model import select_level, select_level_batch
from .levels import LevelTable, OperatingPoint
from .pid import PidGains, PidPredictor, tune_pid

if TYPE_CHECKING:  # pragma: no cover - typing only: runtime imports dvfs
    from ..runtime.jobs import JobRecord


class Plan(NamedTuple):
    """A controller's decision for one job.

    A named tuple rather than a frozen dataclass: the fleet dispatcher
    builds one per projected job, and a tuple builds in about two
    thirds of the time.
    """

    point: OperatingPoint
    t_slice: float = 0.0
    feasible: bool = True


@dataclass(frozen=True)
class BatchPlan:
    """A controller's decisions for a whole job array.

    One entry per job: ``level_index`` addresses the controller's
    level table (boost = ``levels.arrays().boost_index``), and every
    element is bit-identical to what :meth:`Controller.plan` would
    have returned for that job alone.
    """

    level_index: np.ndarray   # int64
    t_slice: np.ndarray       # float64
    feasible: np.ndarray      # bool


class Controller:
    """Base class; subclasses implement :meth:`plan`."""

    #: Whether the scheme runs the prediction slice before each job.
    uses_slice: bool = False
    #: Whether slice/switch overheads are charged by the serving machine
    #: (False for idealized variants like the oracle).
    charge_overheads: bool = True
    #: Whether :meth:`plan` reads the job's ``predicted_cycles``: only
    #: such a run has a prediction error to report.
    plans_on_prediction: bool = False
    #: True when :meth:`plan` is a pure function of (job, budget) and
    #: :meth:`observe` is a no-op — the contract virtual serving relies
    #: on to plan whole blocks with :meth:`plan_batch`.
    #: Reactive schemes (pid, history, governor) must leave this False.
    vectorizable: bool = False

    def __init__(self, name: str, levels: LevelTable, t_switch: float):
        self.name = name
        self.levels = levels
        self.t_switch = t_switch

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Pick an operating point for ``job`` given ``budget`` seconds."""
        raise NotImplementedError

    def plan_batch(self, jobs: Sequence[JobRecord],
                   budgets: np.ndarray) -> Optional[BatchPlan]:
        """Plan a whole job array at once; ``None`` = not supported.

        Only meaningful when :attr:`vectorizable`; the default keeps
        reactive schemes on the scalar path.
        """
        return None

    def observe(self, job: JobRecord) -> None:
        """Called after a job retires (reactive schemes learn here)."""

    def reset(self) -> None:
        """Clear cross-job state before a new run."""

    def _switch_allowance(self) -> float:
        """Budget deduction for a possible level change.

        Controllers deduct the switching time unconditionally — they
        cannot know in advance whether the chosen level will differ
        from the current one, so they must assume it will.
        """
        return self.t_switch if self.charge_overheads else 0.0


class ConstantFrequencyController(Controller):
    """Always run at nominal voltage and frequency (the baseline)."""

    vectorizable = True

    def __init__(self, levels: LevelTable, t_switch: float = 0.0):
        super().__init__("baseline", levels, t_switch)

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Always the nominal operating point."""
        return Plan(point=self.levels.nominal)

    def plan_batch(self, jobs: Sequence[JobRecord],
                   budgets: np.ndarray) -> Optional[BatchPlan]:
        """Every job at nominal — a constant-filled plan."""
        n = len(jobs)
        nominal = self.levels.index_of(self.levels.nominal)
        return BatchPlan(
            level_index=np.full(n, nominal, dtype=np.int64),
            t_slice=np.zeros(n), feasible=np.ones(n, dtype=bool))


class TableBasedController(Controller):
    """Coarse-grained lookup table set to per-class worst cases.

    ``table`` maps the coarse parameter (e.g. resolution class) to the
    worst-case cycle count observed in training for that class.
    Unknown classes fall back to nominal.
    """

    vectorizable = True

    def __init__(self, levels: LevelTable, t_switch: float,
                 table: Dict[int, float]):
        super().__init__("table", levels, t_switch)
        self.table = dict(table)

    @classmethod
    def from_training(cls, levels: LevelTable, t_switch: float,
                      jobs: Iterable[JobRecord]) -> "TableBasedController":
        """Build the per-class worst-case table from training jobs."""
        table: Dict[int, float] = {}
        for job in jobs:
            key = job.coarse_param
            table[key] = max(table.get(key, 0.0), float(job.actual_cycles))
        if not table:
            raise ValueError(
                "cannot build a table controller from an empty training "
                "set — every class would silently fall back to nominal"
            )
        return cls(levels, t_switch, table)

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Level for the class's training worst case."""
        worst = self.table.get(job.coarse_param)
        if worst is None:
            return Plan(point=self.levels.nominal)
        decision = select_level(
            self.levels, worst, budget,
            t_switch=self._switch_allowance(),
        )
        return Plan(point=decision.point, feasible=decision.feasible)

    def plan_batch(self, jobs: Sequence[JobRecord],
                   budgets: np.ndarray) -> Optional[BatchPlan]:
        """Batched lookup: known classes through the decision kernel,
        unknown classes pinned to nominal (the scalar fallback)."""
        worst = [self.table.get(job.coarse_param) for job in jobs]
        known = np.array([w is not None for w in worst], dtype=bool)
        cycles = np.array([w if w is not None else 0.0 for w in worst],
                          dtype=float)
        decision = select_level_batch(
            self.levels, cycles, budgets,
            t_switch=self._switch_allowance())
        nominal = self.levels.index_of(self.levels.nominal)
        return BatchPlan(
            level_index=np.where(known, decision.level_index, nominal),
            t_slice=np.zeros(len(jobs)),
            feasible=np.where(known, decision.feasible, True))


class PidController(Controller):
    """Reactive PID prediction with a safety margin (10% in the paper)."""

    def __init__(self, levels: LevelTable, t_switch: float,
                 gains: Optional[PidGains] = None,
                 margin: float = 0.10):
        super().__init__("pid", levels, t_switch)
        self.gains = gains or PidGains(0.6, 0.05, 0.1)
        self.margin = margin
        self._pid = PidPredictor(self.gains)

    @classmethod
    def tuned(cls, levels: LevelTable, t_switch: float,
              training_cycles: Sequence[float],
              margin: float = 0.10) -> "PidController":
        """Tune gains on the training execution-time series."""
        return cls(levels, t_switch, gains=tune_pid(training_cycles),
                   margin=margin)

    def reset(self) -> None:
        """Restart the PID predictor."""
        self._pid = PidPredictor(self.gains)

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Level from the PID's next-job prediction (10% margin)."""
        predicted = self._pid.predict()
        if predicted is None:
            return Plan(point=self.levels.nominal)  # conservative first job
        decision = select_level(
            self.levels, predicted, budget,
            margin_fraction=self.margin,
            t_switch=self._switch_allowance(),
        )
        return Plan(point=decision.point, feasible=decision.feasible)

    def observe(self, job: JobRecord) -> None:
        """Feed the retired job's cycle count to the PID."""
        self._pid.observe(float(job.actual_cycles))


class HistoryController(Controller):
    """Moving-average reactive control (frame-based DVFS, [10])."""

    def __init__(self, levels: LevelTable, t_switch: float,
                 window: int = 4, margin: float = 0.10):
        super().__init__("history", levels, t_switch)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.margin = margin
        self._past: deque = deque(maxlen=window)

    def reset(self) -> None:
        """Forget past observations."""
        self._past.clear()

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Level from the moving-average prediction."""
        if not self._past:
            return Plan(point=self.levels.nominal)
        predicted = sum(self._past) / len(self._past)
        decision = select_level(
            self.levels, predicted, budget,
            margin_fraction=self.margin,
            t_switch=self._switch_allowance(),
        )
        return Plan(point=decision.point, feasible=decision.feasible)

    def observe(self, job: JobRecord) -> None:
        """Append the retired job's cycle count to the window."""
        self._past.append(float(job.actual_cycles))


class PredictiveController(Controller):
    """The paper's slice-based predictive scheme (5% margin).

    ``boost=True`` enables the 1.08 V boost level when the remaining
    budget is too short even for nominal frequency (Fig 14).
    ``charge_overheads=False`` models the idealized "prediction w/o
    overhead" variant of Fig 13.
    """

    uses_slice = True
    vectorizable = True
    plans_on_prediction = True

    def __init__(self, levels: LevelTable, t_switch: float,
                 margin: float = 0.05, boost: bool = False,
                 charge_overheads: bool = True):
        # Compose the name from both flags — ``boost`` and
        # ``charge_overheads`` are independent, so the four combinations
        # must yield four distinct names or variants collide in
        # SchemeSummary tables.
        name = "prediction"
        if boost:
            name += "_boost"
        if not charge_overheads:
            name += "_no_overhead"
        super().__init__(name, levels, t_switch)
        self.margin = margin
        self.boost = boost
        self.charge_overheads = charge_overheads
        if not charge_overheads:
            self.uses_slice = False

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Level from the slice's prediction, margins and overheads deducted."""
        predicted = job.predicted_cycles
        if predicted is None:
            raise ValueError(
                f"job {job.index} carries no prediction; run the slice "
                "pipeline first"
            )
        levels = self.levels
        t_slice = (job.slice_cycles / levels.nominal.frequency
                   if self.charge_overheads else 0.0)
        # Positional: the fleet dispatcher plans every arrival here.
        point, feasible, _ = select_level(
            levels, predicted, budget, self.margin, t_slice,
            self._switch_allowance(), self.boost)
        return Plan(point, t_slice, feasible)

    def plan_batch(self, jobs: Sequence[JobRecord],
                   budgets: np.ndarray) -> Optional[BatchPlan]:
        """Batched slice-prediction planning.

        Declines (returns None) when any job is missing its
        prediction, so the scalar path raises the same diagnostic the
        per-job :meth:`plan` would.
        """
        predicted = [job.predicted_cycles for job in jobs]
        if any(p is None for p in predicted):
            return None
        cycles = np.array(predicted, dtype=float)
        if self.charge_overheads:
            f_nominal = self.levels.nominal.frequency
            t_slice = np.array(
                [job.slice_cycles for job in jobs],
                dtype=float) / f_nominal
        else:
            t_slice = np.zeros(len(jobs))
        decision = select_level_batch(
            self.levels, cycles, budgets,
            margin_fraction=self.margin,
            t_slice=t_slice,
            t_switch=self._switch_allowance(),
            allow_boost=self.boost)
        return BatchPlan(level_index=decision.level_index,
                         t_slice=t_slice, feasible=decision.feasible)


class IntervalGovernorController(Controller):
    """A devfreq ``simple_ondemand``-style interval governor.

    The paper's Sec. 5.1: "Linux implements interval-based governors in
    its devfreq framework ... these governors have the same issues when
    dealing with workloads that show large variability."  The governor
    measures the utilization of the previous interval (here: the
    previous job's busy fraction of its period at the level it ran at)
    and retargets frequency proportionally:

    * utilization above ``up_threshold`` -> jump to the frequency that
      would bring utilization back to the threshold (usually up);
    * utilization below ``up_threshold - down_differential`` -> scale
      down the same way;
    * otherwise hold the level.

    It never looks at the upcoming job, so it inherits the reactive
    schemes' lag — plus interval quantization.
    """

    def __init__(self, levels: LevelTable, t_switch: float,
                 up_threshold: float = 0.90,
                 down_differential: float = 0.15):
        super().__init__("governor", levels, t_switch)
        if not 0 < up_threshold <= 1:
            raise ValueError("up_threshold must be in (0, 1]")
        if not 0 <= down_differential < up_threshold:
            raise ValueError("down_differential must be below the "
                             "up threshold")
        self.up_threshold = up_threshold
        self.down_differential = down_differential
        self._current = levels.nominal
        self._last_utilization: Optional[float] = None
        self._period = 0.0

    def reset(self) -> None:
        """Return to nominal with no utilization history."""
        self._current = self.levels.nominal
        self._last_utilization = None
        self._period = 0.0

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Retarget frequency from the previous interval's utilization."""
        self._period = budget
        util = self._last_utilization
        if util is not None:
            if (util > self.up_threshold
                    or util < self.up_threshold - self.down_differential):
                target = self._current.frequency * util / self.up_threshold
                point = self.levels.lowest_meeting(target)
                self._current = point or self.levels.nominal
        return Plan(point=self._current)

    def observe(self, job: JobRecord) -> None:
        """Measure the retired job's utilization of its period."""
        busy = job.actual_cycles / self._current.frequency
        period = self._period if self._period > 0 else busy
        self._last_utilization = min(busy / period, 4.0)


class OracleController(Controller):
    """Perfect per-job level selection with zero overheads (Fig 13)."""

    charge_overheads = False
    vectorizable = True

    def __init__(self, levels: LevelTable):
        super().__init__("oracle", levels, t_switch=0.0)

    def plan(self, job: JobRecord, budget: float) -> Plan:
        """Level from the job's true cycle count (perfect prediction)."""
        decision = select_level(self.levels, float(job.actual_cycles),
                                budget)
        return Plan(point=decision.point, feasible=decision.feasible)

    def plan_batch(self, jobs: Sequence[JobRecord],
                   budgets: np.ndarray) -> Optional[BatchPlan]:
        """Batched oracle: true cycle counts through the kernel."""
        cycles = np.array([job.actual_cycles for job in jobs],
                          dtype=float)
        decision = select_level_batch(self.levels, cycles, budgets)
        return BatchPlan(level_index=decision.level_index,
                         t_slice=np.zeros(len(jobs)),
                         feasible=decision.feasible)

"""The paper's DVFS model (Sec. 3.6).

Execution time decomposes as ``T = T_memory + C / f``; for the studied
accelerators memory time is negligible (compute-intensive designs with
DMA-managed scratchpads), so ``T0 = C / f0`` and the target frequency
for a job with predicted nominal-frequency time ``T0`` is::

    f = ceil_level( f0 * (T0 + T_margin) / (T_budget - T_slice - T_dvfs) )

where ``ceil_level`` rounds up to the next discrete operating point,
``T_slice`` is the time to run the prediction slice and ``T_dvfs`` the
voltage/frequency switching time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .levels import LevelTable, OperatingPoint


class DvfsDecision(NamedTuple):
    """Outcome of level selection for one job.

    A named tuple, as :class:`~repro.dvfs.controllers.Plan` is: the
    fleet dispatcher selects a level for every arrival it projects.
    """

    point: OperatingPoint
    feasible: bool  # False when even the fastest level cannot make it
    f_required: float


def required_frequency(predicted_cycles: float, f_nominal: float,
                       budget: float, margin_fraction: float = 0.0,
                       t_slice: float = 0.0,
                       t_switch: float = 0.0) -> float:
    """The minimum frequency meeting the deadline, before rounding.

    ``predicted_cycles`` is the predicted execution cycle count C (so
    ``T0 = C / f0`` cancels f0: f = C * (1 + margin) / T_avail).
    """
    if predicted_cycles < 0:
        predicted_cycles = 0.0
    available = budget - t_slice - t_switch
    if available <= 0:
        return float("inf")
    cycles_with_margin = predicted_cycles * (1.0 + margin_fraction)
    return cycles_with_margin / available


def select_level(levels: LevelTable, predicted_cycles: float,
                 budget: float, margin_fraction: float = 0.0,
                 t_slice: float = 0.0, t_switch: float = 0.0,
                 allow_boost: bool = False) -> DvfsDecision:
    """Pick the lowest operating point meeting the deadline.

    Falls back to the fastest allowed point (boost if enabled) when no
    level is fast enough — running flat-out minimizes the damage.
    """
    f_req = required_frequency(predicted_cycles, levels.nominal.frequency,
                               budget, margin_fraction, t_slice, t_switch)
    point = levels.lowest_meeting(f_req, allow_boost)
    if point is None:
        return DvfsDecision(levels.fastest(allow_boost), False, f_req)
    return DvfsDecision(point, True, f_req)


@dataclass(frozen=True)
class BatchDecision:
    """Level selection for a whole job array (one entry per job).

    ``level_index`` addresses the table's ascending-frequency points;
    the value ``levels.arrays().boost_index`` means the boost point.
    Infeasible jobs carry the flat-out fallback index (boost when
    allowed, nominal otherwise) with ``feasible=False`` — exactly the
    scalar :func:`select_level` contract, element by element.
    """

    level_index: np.ndarray   # int64, boost = arrays().boost_index
    feasible: np.ndarray      # bool
    f_required: np.ndarray    # float64 (inf where no time is left)

    def __len__(self) -> int:
        return len(self.level_index)

    def decision_at(self, levels: LevelTable, i: int) -> DvfsDecision:
        """Rehydrate one entry as the scalar ``DvfsDecision`` form."""
        return DvfsDecision(
            point=levels.point_at(int(self.level_index[i])),
            feasible=bool(self.feasible[i]),
            f_required=float(self.f_required[i]),
        )


def required_frequency_batch(predicted_cycles: np.ndarray,
                             budget: np.ndarray,
                             margin_fraction: float = 0.0,
                             t_slice=0.0,
                             t_switch=0.0) -> np.ndarray:
    """Vectorized :func:`required_frequency` — bit-identical per entry.

    Every arithmetic step replicates the scalar evaluation order
    (``(budget - t_slice) - t_switch``; ``cycles * (1 + margin)`` then
    the divide), so each element equals the scalar result to the last
    ULP.  ``t_slice``/``t_switch`` may be scalars or arrays.
    """
    cycles = np.asarray(predicted_cycles, dtype=float)
    cycles = np.where(cycles < 0, 0.0, cycles)
    available = (np.asarray(budget, dtype=float) - t_slice) - t_switch
    # Divide only where time remains; everything else is inf, as in
    # the scalar early return.
    safe = np.where(available > 0, available, 1.0)
    return np.where(available > 0,
                    (cycles * (1.0 + margin_fraction)) / safe,
                    np.inf)


def select_level_batch(levels: LevelTable,
                       predicted_cycles: np.ndarray,
                       budget: np.ndarray,
                       margin_fraction: float = 0.0,
                       t_slice=0.0,
                       t_switch=0.0,
                       allow_boost: bool = False) -> BatchDecision:
    """Vectorized :func:`select_level` over whole job arrays.

    The frequency breakpoints come from the table's cached
    :class:`~repro.dvfs.levels.LevelArrays`; ``np.searchsorted(...,
    side='left')`` finds the first point with ``frequency >=
    f_required`` — the same point the scalar linear scan returns,
    including ties (first equal wins in both).  NaN requirements sort
    past every breakpoint and land on the infeasible fallback, again
    matching the scalar comparison chain.
    """
    arrays = levels.arrays()
    f_req = required_frequency_batch(
        predicted_cycles, budget, margin_fraction=margin_fraction,
        t_slice=t_slice, t_switch=t_switch)
    idx = np.searchsorted(arrays.frequencies, f_req, side="left")
    feasible = idx < arrays.n_levels
    if allow_boost and arrays.boost_frequency is not None:
        boosted = ~feasible & (arrays.boost_frequency >= f_req)
        feasible = feasible | boosted
    # Infeasible jobs run flat out: boost when enabled, else nominal.
    fallback = levels.index_of(levels.fastest(allow_boost=allow_boost))
    idx = np.where(feasible, np.minimum(idx, arrays.boost_index),
                   fallback)
    return BatchDecision(level_index=idx.astype(np.int64),
                         feasible=feasible, f_required=f_req)

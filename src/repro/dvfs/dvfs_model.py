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


class Plan(NamedTuple):
    """A level decision for one job: what :func:`select_level` returns
    and every controller's :meth:`~repro.dvfs.Controller.plan` hands
    on.

    ``t_slice`` is the slice time deducted from the budget,
    ``feasible`` is False when even the fastest allowed point cannot
    make the deadline, and ``f_required`` is the frequency the rule
    asked for (0.0 for a fixed-level or warm-up plan, which asks for
    none).  A named tuple: the fleet dispatcher plans every arrival it
    projects.
    """

    point: OperatingPoint
    t_slice: float = 0.0
    feasible: bool = True
    f_required: float = 0.0


@dataclass(frozen=True)
class BatchPlan:
    """:class:`Plan`'s four fields over a job array, one entry per job:
    what :func:`select_level_batch` returns and every
    :meth:`~repro.dvfs.Controller.plan_batch` hands on.

    ``level_index`` addresses :attr:`LevelTable.indexed
    <repro.dvfs.LevelTable.indexed>`, and every entry equals the
    scalar plan of that job alone.
    """

    level_index: np.ndarray   # int64
    t_slice: np.ndarray       # float64
    feasible: np.ndarray      # bool
    f_required: np.ndarray    # float64 (inf where no time is left)


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
                 allow_boost: bool = False) -> Plan:
    """Pick the lowest operating point meeting the deadline.

    Falls back to the fastest allowed point (boost if enabled) when no
    level is fast enough — running flat-out minimizes the damage.
    """
    f_req = required_frequency(predicted_cycles, levels.nominal.frequency,
                               budget, margin_fraction, t_slice, t_switch)
    point = levels.lowest_meeting(f_req, allow_boost)
    if point is None:
        return Plan(levels.fastest(allow_boost), t_slice, False, f_req)
    return Plan(point, t_slice, True, f_req)


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
                       allow_boost: bool = False) -> BatchPlan:
    """Vectorized :func:`select_level` over whole job arrays.

    ``np.searchsorted(..., side='left')`` over the table's non-boost
    :attr:`~repro.dvfs.LevelTable.frequencies` finds the first point
    with ``frequency >= f_required``: the same point the scalar linear
    scan returns, including ties (first equal wins in both).  NaN
    requirements sort past every breakpoint and land on the infeasible
    fallback, again matching the scalar comparison chain.
    """
    f_req = required_frequency_batch(
        predicted_cycles, budget, margin_fraction=margin_fraction,
        t_slice=t_slice, t_switch=t_switch)
    n_points = len(levels.points)
    idx = np.searchsorted(levels.frequencies[:n_points], f_req,
                          side="left")
    feasible = idx < n_points
    if allow_boost and levels.boost is not None:
        # A job past the last point sits at index n_points, the boost
        # point's, and boost rescues it when fast enough.
        feasible |= levels.boost.frequency >= f_req
    # Infeasible jobs run flat out: boost when enabled, else nominal.
    fallback = levels.index_of(levels.fastest(allow_boost))
    return BatchPlan(np.where(feasible, idx, fallback).astype(np.int64),
                     np.full(f_req.shape, t_slice, dtype=float),
                     feasible, f_req)

"""Property-based tests for level selection and the deadline epsilon.

Hand-picked constants can only probe the boundaries someone thought
of; these generate (cycles, budget, margin) triples and whole float
neighborhoods around the exact-fit frontier.  Requires ``hypothesis``
(a dev extra) — skipped cleanly where it is absent.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.dvfs import (  # noqa: E402
    ASIC_VOLTAGES,
    AsicVfModel,
    build_level_table,
    select_level,
)
from repro.units import MHZ, TIME_EPS_REL, deadline_missed  # noqa: E402

#: One table for the whole module — characterization is deterministic.
LEVELS = build_level_table(AsicVfModel.characterize(100 * MHZ),
                           ASIC_VOLTAGES)

cycles_st = st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False)
budget_st = st.floats(min_value=1e-6, max_value=1.0,
                      allow_nan=False, allow_infinity=False)
margin_st = st.floats(min_value=0.0, max_value=0.5,
                      allow_nan=False, allow_infinity=False)
boost_st = st.booleans()


@settings(deadline=None)
@given(cycles=cycles_st, budgets=st.tuples(budget_st, budget_st),
       margin=margin_st, boost=boost_st)
def test_select_level_monotone_in_budget(cycles, budgets, margin, boost):
    """A looser deadline never selects a faster level."""
    tight, loose = sorted(budgets)
    fast = select_level(LEVELS, cycles, tight, margin_fraction=margin,
                        allow_boost=boost)
    slow = select_level(LEVELS, cycles, loose, margin_fraction=margin,
                        allow_boost=boost)
    assert fast.point.frequency >= slow.point.frequency
    # Feasibility is monotone too: what fits in tight fits in loose.
    if fast.feasible:
        assert slow.feasible


@settings(deadline=None)
@given(cycles=st.tuples(cycles_st, cycles_st), budget=budget_st,
       margin=margin_st, boost=boost_st)
def test_select_level_monotone_in_cycles(cycles, budget, margin, boost):
    """A bigger prediction never selects a slower level."""
    small, large = sorted(cycles)
    a = select_level(LEVELS, small, budget, margin_fraction=margin,
                     allow_boost=boost)
    b = select_level(LEVELS, large, budget, margin_fraction=margin,
                     allow_boost=boost)
    assert b.point.frequency >= a.point.frequency
    if b.feasible:
        assert a.feasible


@settings(deadline=None)
@given(cycles=cycles_st, budget=budget_st, margin=margin_st,
       boost=boost_st)
def test_selected_level_is_minimal(cycles, budget, margin, boost):
    """The selected point is the *slowest* one meeting f_required."""
    decision = select_level(LEVELS, cycles, budget,
                            margin_fraction=margin, allow_boost=boost)
    if not decision.feasible:
        assert decision.point == LEVELS.fastest(allow_boost=boost)
        assert all(p.frequency < decision.f_required for p in LEVELS)
        return
    assert decision.point.frequency >= decision.f_required
    slower = [p for p in LEVELS
              if p.frequency < decision.point.frequency]
    assert all(p.frequency < decision.f_required for p in slower)


@settings(deadline=None)
@given(f_required=st.floats(min_value=0.0, max_value=1e10,
                            allow_nan=False),
       boost=boost_st)
def test_lowest_meeting_matches_brute_force(f_required, boost):
    candidates = list(LEVELS.points)
    if boost and LEVELS.boost is not None:
        candidates.append(LEVELS.boost)
    meeting = [p for p in candidates if p.frequency >= f_required]
    expected = (min(meeting, key=lambda p: p.frequency)
                if meeting else None)
    assert LEVELS.lowest_meeting(f_required, allow_boost=boost) \
        == expected


@settings(deadline=None)
@given(k=st.integers(min_value=-30, max_value=0),
       level=st.integers(min_value=0, max_value=len(LEVELS) - 1))
def test_exact_fit_boundary(k, level):
    """At exactly-fitting cycle counts the level still qualifies; one
    ULP more cycles pushes selection to the next-faster level.

    Power-of-two budgets make ``cycles / budget`` reproduce the
    level's frequency bit-exactly, so this probes the true float
    boundary rather than a safely-distant constant.
    """
    budget = 2.0 ** k
    point = LEVELS.points[level]
    cycles = point.frequency * budget  # exact: scaling by 2**k
    decision = select_level(LEVELS, cycles, budget)
    assert decision.feasible
    assert decision.point == point

    bumped = select_level(LEVELS, math.nextafter(cycles, math.inf),
                          budget)
    if level == len(LEVELS) - 1:
        assert not bumped.feasible  # past nominal: run flat out
    else:
        assert bumped.point == LEVELS.points[level + 1]
        assert bumped.point.frequency > point.frequency


@settings(deadline=None)
@given(budget=budget_st, cycles=cycles_st,
       overhead=st.floats(min_value=0.0, max_value=2.0,
                          allow_nan=False))
def test_no_time_left_is_never_feasible(budget, cycles, overhead):
    """Overheads at or beyond the budget force the flat-out fallback."""
    t_slice = budget + overhead
    decision = select_level(LEVELS, cycles, budget, t_slice=t_slice)
    if cycles > 0.0:
        assert not decision.feasible
        assert decision.f_required == math.inf
    assert decision.point == LEVELS.fastest()


# -- the deadline epsilon predicate ----------------------------------

deadline_st = st.floats(min_value=1e-6, max_value=10.0,
                        allow_nan=False, allow_infinity=False)
release_factor_st = st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(deadline=deadline_st, factor=release_factor_st,
       k=st.floats(min_value=-1.0, max_value=0.0, allow_nan=False))
def test_on_time_is_never_missed(deadline, factor, k):
    """finish <= release + deadline can never be flagged missed."""
    release = deadline * factor
    finish = (release + deadline) + k * deadline
    assert not deadline_missed(finish, release, deadline)


@settings(deadline=None)
@given(deadline=deadline_st, factor=release_factor_st,
       k=st.floats(min_value=2 * TIME_EPS_REL, max_value=1.0,
                   allow_nan=False))
def test_clear_overrun_is_always_missed(deadline, factor, k):
    """Overruns of at least 2 epsilon are always flagged."""
    release = deadline * factor
    finish = (release + deadline) + k * deadline
    assert deadline_missed(finish, release, deadline)


@settings(deadline=None)
@given(deadline=deadline_st, factor=release_factor_st,
       k=st.floats(min_value=-1e-10, max_value=1e-10,
                   allow_nan=False))
def test_rounding_noise_is_forgiven(deadline, factor, k):
    """Jitter an order of magnitude below epsilon never flags."""
    release = deadline * factor
    finish = (release + deadline) + k * deadline
    assert not deadline_missed(finish, release, deadline)


# -- batch kernel equivalence (the vectorized decision plane) ---------

import numpy as np  # noqa: E402

from repro.dvfs import (  # noqa: E402
    FPGA_VOLTAGES,
    FpgaVfModel,
    Plan,
    select_level_batch,
)

#: A second table with a different shape (and a boost point guaranteed
#: by the FPGA voltage ladder differing from the ASIC one), so the
#: batch kernel is exercised over more than one frequency grid.
FPGA_LEVELS = build_level_table(FpgaVfModel(f_nominal=100 * MHZ),
                                FPGA_VOLTAGES)
TABLES = [LEVELS, FPGA_LEVELS]

slice_st = st.floats(min_value=0.0, max_value=0.1,
                     allow_nan=False, allow_infinity=False)
switch_st = st.floats(min_value=0.0, max_value=0.01,
                      allow_nan=False, allow_infinity=False)
table_st = st.integers(min_value=0, max_value=len(TABLES) - 1)


def _plan_at(levels, batch, i):
    """Entry ``i`` of a ``BatchPlan`` as the scalar ``Plan``."""
    return Plan(levels.indexed[batch.level_index[i]],
                float(batch.t_slice[i]), bool(batch.feasible[i]),
                float(batch.f_required[i]))


def _assert_batch_matches_scalar(levels, cycles, budgets, margin,
                                 t_slice, t_switch, boost):
    batch = select_level_batch(
        levels, np.array(cycles, dtype=float),
        np.array(budgets, dtype=float), margin_fraction=margin,
        t_slice=t_slice, t_switch=t_switch, allow_boost=boost)
    assert len(batch.level_index) == len(cycles)
    for i, (c, b) in enumerate(zip(cycles, budgets)):
        scalar = select_level(levels, c, b, margin_fraction=margin,
                              t_slice=t_slice, t_switch=t_switch,
                              allow_boost=boost)
        entry = _plan_at(levels, batch, i)
        assert entry.point is scalar.point, (
            f"job {i}: batch chose {entry.point}, "
            f"scalar {scalar.point}")
        assert entry.t_slice == scalar.t_slice
        assert entry.feasible == scalar.feasible
        # Bit-identical f_required, not merely close: the engines must
        # agree on the exact float.
        assert (entry.f_required == scalar.f_required
                or (math.isnan(entry.f_required)
                    and math.isnan(scalar.f_required)))


@settings(deadline=None)
@given(table=table_st,
       jobs=st.lists(st.tuples(cycles_st, budget_st),
                     min_size=1, max_size=64),
       margin=margin_st, t_slice=slice_st, t_switch=switch_st,
       boost=boost_st)
def test_batch_equals_scalar_elementwise(table, jobs, margin, t_slice,
                                         t_switch, boost):
    """``select_level_batch`` is the scalar ``select_level`` mapped
    over the array — same point, feasibility, and exact f_required
    for every element, margins/overheads/boost included."""
    cycles = [c for c, _ in jobs]
    budgets = [b for _, b in jobs]
    _assert_batch_matches_scalar(TABLES[table], cycles, budgets,
                                 margin, t_slice, t_switch, boost)


@settings(deadline=None)
@given(table=table_st, budget=budget_st, margin=margin_st,
       overhead=st.floats(min_value=0.0, max_value=2.0,
                          allow_nan=False),
       cycles=st.lists(cycles_st, min_size=1, max_size=16),
       boost=boost_st)
def test_batch_infeasible_fallback_matches(table, budget, margin,
                                           overhead, cycles, boost):
    """When overheads eat the whole budget, every batch element takes
    the same flat-out fallback the scalar path takes."""
    levels = TABLES[table]
    t_slice = budget + overhead
    batch = select_level_batch(
        levels, np.array(cycles), np.full(len(cycles), budget),
        margin_fraction=margin, t_slice=t_slice, allow_boost=boost)
    fastest = levels.fastest(allow_boost=boost)
    for i, c in enumerate(cycles):
        decision = _plan_at(levels, batch, i)
        if c > 0.0:
            assert not decision.feasible
            assert decision.f_required == math.inf
        assert decision.point == fastest or decision.feasible


@settings(deadline=None)
@given(k=st.integers(min_value=-30, max_value=0),
       boost=boost_st)
def test_batch_exact_fit_boundary(k, boost):
    """The whole exact-fit frontier in one batch: for every level, the
    exactly-fitting cycle count and its ``nextafter`` bump — the batch
    kernel must place each on the same side of the boundary as the
    scalar path (power-of-two budgets make the division exact)."""
    budget = 2.0 ** k
    cycles = []
    for point in LEVELS.points:
        exact = point.frequency * budget
        cycles.extend([exact, math.nextafter(exact, math.inf)])
    budgets = [budget] * len(cycles)
    _assert_batch_matches_scalar(LEVELS, cycles, budgets, 0.0, 0.0,
                                 0.0, boost)


@settings(deadline=None)
@given(jobs=st.lists(st.tuples(cycles_st, budget_st),
                     min_size=1, max_size=32),
       margin=margin_st)
def test_batch_boost_only_beyond_table(jobs, margin):
    """Boost is selected by the batch kernel exactly when no table
    point meets f_required but the boost point does — never sooner."""
    cycles = np.array([c for c, _ in jobs])
    budgets = np.array([b for _, b in jobs])
    batch = select_level_batch(LEVELS, cycles, budgets,
                               margin_fraction=margin,
                               allow_boost=True)
    for i in range(len(jobs)):
        decision = _plan_at(LEVELS, batch, i)
        if decision.point.is_boost and decision.feasible:
            assert LEVELS.nominal.frequency < decision.f_required
            assert LEVELS.boost.frequency >= decision.f_required

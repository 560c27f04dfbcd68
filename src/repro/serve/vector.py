"""Virtual serving: block-planned execution.

The scalar machine (:mod:`repro.serve.server`) walks the stream one
arrival at a time.  This module drives *exactly the same state
machine*, but decides whole **blocks** of arrivals at once wherever
the decisions decouple.  Lone streams and fleet shards are both served
this way on the virtual clock; realtime serving stays scalar.

A job is *uncoupled* when it arrives to an empty queue and an idle
server: the scalar machine would start it at its arrival, in a
micro-batch of one, with the deadline as its budget, so a
:attr:`~repro.dvfs.Controller.vectorizable` controller's level follows
in closed form.  When serving reaches an uncoupled arrival no plan
covers, it plans that arrival and the next ``BLOCK - 1`` as if each
started at its arrival: level and slice time from
:meth:`~repro.dvfs.Controller.plan_batch`, a switch case against the
previous job's planned level, ``t_exec = actual_cycles / frequency``
(the accounting kernel's own expression) and, in numpy, finish, miss
flag and a *chain bit*: the planned finish is at or before the next
arrival, so that job is uncoupled too.

Each uncoupled arrival then commits a **run** from the block's lists
while the chain bits hold, and prices each committed job's energy
from the stream's memo of :func:`~repro.runtime.jobs.charge_job`
(:meth:`~repro.serve.server.AcceleratorStream.charge`), which the
scalar machine shares: a coupled arrival is priced once, by the path
that serves it.  A run ends at a broken chain or at the block's end; a
run whose first job switches differently from the plan (the scalar
path ran in between) redoes that job's finish.  Every run lands in
``AcceleratorStream.epoch_log`` as ``(first_index, n_jobs)``, audited
by :func:`repro.check.check_epochs`.  Committed outcomes are
**bit-identical** to the scalar machine's
(:func:`repro.serve.virtual_outcomes`): one kernel prices both, and
numpy takes the scalar operations in the scalar order.  A planned
job's ``decision_s`` is its block's plan time over its job count (see
docs/serving.md).

A block is planned only when no predictor has to run: a
:class:`~repro.serve.server.RecordPredictor` replay, a scheme without
a slice, or a slice scheme without a predictor.  The scalar machine
serves everything else: a live predictor (run once per executed job,
never for a shed one), a reactive controller (pid / history /
governor), a set ``prediction_budget``, a level table with duplicate
points, and every coupled arrival.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..obs import get_observer
from ..units import TIME_EPS_REL, deadline_missed
from .server import COMPLETED, FALLBACK, AcceleratorStream, \
    RecordPredictor, StreamOutcome, valid_prediction
from .stream import StreamJob

#: Arrivals planned at once.  A block costs a fixed number of numpy
#: calls, shared by every job it plans.
BLOCK = 1024


class EpochEngine:
    """Block planner and run committer bound to one
    :class:`~repro.serve.server.AcceleratorStream`."""

    def __init__(self, stream: AcceleratorStream) -> None:
        self.stream = stream
        self.levels = stream.levels
        self.config = stream.config
        self.controller = stream.controller
        self._points = list(self.levels.points)
        if self.levels.boost is not None:
            self._points.append(self.levels.boost)
        self._ids = [id(p) for p in self._points]
        self._freq = np.array([p.frequency for p in self._points])
        predictor = stream.predictor
        self.eligible = (
            self.controller.vectorizable
            and self.levels.arrays().unique
            and self.config.prediction_budget is None
            and (not self.controller.uses_slice or predictor is None
                 or type(predictor) is RecordPredictor))
        #: Arrivals per planned block.
        self.window = BLOCK
        #: The current block covers ``jobs[_first:_end]``; ``_plan`` is
        #: its columns, or ``None`` when the controller declined it.
        self._first = self._end = 0
        self._plan = None

    # -- the block plan ------------------------------------------------

    def _fallback_mask(self, records) -> np.ndarray:
        """Which jobs fall back, found without running a predictor."""
        n = len(records)
        if not self.controller.uses_slice:
            return np.zeros(n, dtype=bool)
        if self.stream.predictor is None:
            return np.ones(n, dtype=bool)
        # A RecordPredictor replays the record's own values, so the
        # scalar path plans on the record itself too.
        return np.array([not valid_prediction(r.predicted_cycles,
                                              r.slice_cycles)
                         for r in records], dtype=bool)

    def _plan_block(self, jobs: Sequence[StreamJob], first: int) -> None:
        """Plan ``jobs[first:first + BLOCK]`` as if each job started at
        its arrival in a micro-batch of one."""
        t0 = time.perf_counter()
        block = jobs[first:first + self.window]
        n = len(block)
        self._first, self._end, self._plan = first, first + n, None
        records = [sj.record for sj in block]
        fallback = self._fallback_mask(records)
        arr = np.array([sj.arrival for sj in block], dtype=float)
        # The scalar budget is (release + deadline) - start with
        # start == release here — elementwise, not constant.
        deadline = self.config.deadline
        budgets = (arr + deadline) - arr
        idx = np.full(n, self.levels.index_of(self.levels.nominal),
                      dtype=np.int64)
        t_slice = np.zeros(n)
        live = ~fallback
        n_live = int(live.sum())
        if n_live:
            if n_live < n:
                plan = self.controller.plan_batch(
                    [records[k] for k in np.flatnonzero(live).tolist()],
                    budgets[live])
            else:
                plan = self.controller.plan_batch(records, budgets)
            if plan is None:
                return
            idx[live] = plan.level_index
            t_slice[live] = plan.t_slice
        decision_s = (time.perf_counter() - t0) / n

        t_switch = (self.config.t_switch
                    if self.controller.charge_overheads else 0.0)
        # The planned case switches against the previous job's planned
        # level, and the first job against the stream's current one:
        # the block's first run commits right after this plan.
        switched = np.zeros(n, dtype=bool)
        if self.controller.charge_overheads:
            switched[0] = (self._points[int(idx[0])]
                           != self.stream._previous)
            switched[1:] = idx[1:] != idx[:-1]
        t_sw = np.where(switched, t_switch, 0.0)
        # ``charge_job``'s own expression for the execution time: the
        # plan prices nothing (see ``run_epoch``).
        t_exec = np.array([r.actual_cycles for r in records],
                          dtype=float) / self._freq[idx]
        finish = ((arr + t_slice) + t_sw) + t_exec
        missed = (finish - (arr + deadline)) > TIME_EPS_REL * deadline
        # A run continuing at job j ends after the first job at or past
        # j whose planned finish passes its successor's arrival.
        breaks = np.flatnonzero(~(finish[:-1] <= arr[1:]))
        ends = np.append(breaks + 1, n)[
            np.searchsorted(breaks, np.arange(n))]
        status = ([FALLBACK if f else COMPLETED
                   for f in fallback.tolist()]
                  if n_live < n else [COMPLETED] * n)
        idx_l, ts_l, tsw_l = idx.tolist(), t_slice.tolist(), t_sw.tolist()
        # Most jobs find their charge in the stream's memo (keyed as
        # ``AcceleratorStream.charge`` keys it); a miss stays ``None``.
        get, ids = self.stream._charges.get, self._ids
        charges = [get((id(r.activity), r.actual_cycles, r.slice_cycles,
                        ids[level], ts, tsw))
                   for r, level, ts, tsw in zip(records, idx_l, ts_l, tsw_l)]
        self._plan = (
            block, records, decision_s, t_switch, status, arr.tolist(),
            idx_l, ts_l, tsw_l, finish.tolist(), missed.tolist(), charges,
            ends.tolist())

    # -- the run -------------------------------------------------------

    def run_epoch(self, jobs: Sequence[StreamJob], start: int) -> int:
        """Commit the uncoupled run that starts at ``jobs[start]``.

        Plans a block first when none covers ``start``.  Returns how
        many jobs were committed (0 = the controller declined the block
        and the caller must take the scalar path for ``jobs[start]``).
        Preconditions (checked by :func:`drive_stream_vectorized`): the
        queue is empty and ``stream.now <= jobs[start].arrival``.
        """
        if not self._first <= start < self._end:
            self._plan_block(jobs, start)
        if self._plan is None:
            return 0
        (block, records, decision_s, t_switch, status_l, arr_l, idx_l,
         ts_l, tsw_l, fin_l, miss_l, charges, ends_l) = self._plan
        stream = self.stream
        points = self._points
        k = start - self._first
        n = len(block)
        # The first job's switch case follows the stream's current
        # level, as the scalar machine decides it.  When the scalar path
        # ran since the plan, the case may differ: the job is then
        # priced, and its finish and miss flag redone, in place.
        tsw = (t_switch if self.controller.charge_overheads
               and points[idx_l[k]] != stream._previous else 0.0)
        if tsw != tsw_l[k]:
            tsw_l[k] = tsw
            charges[k] = stream.charge(records[k], points[idx_l[k]],
                                       ts_l[k], tsw)
            fin_l[k] = ((arr_l[k] + ts_l[k]) + tsw) + charges[k][0]
            miss_l[k] = deadline_missed(fin_l[k], arr_l[k],
                                        self.config.deadline)
        end = ends_l[k + 1] if k + 1 < n and fin_l[k] <= arr_l[k + 1] \
            else k + 1
        append = stream.outcomes.append
        new = StreamOutcome.__new__
        for j in range(k, end):
            # Priced only at commit: the plan never prices an arrival
            # that the scalar machine serves.
            charge = charges[j] or stream.charge(
                records[j], points[idx_l[j]], ts_l[j], tsw_l[j])
            point = charge[3]
            # Built as ``StreamOutcome`` says, never mutated again.
            outcome = new(StreamOutcome)
            fields = outcome.__dict__
            fields["index"] = block[j].index
            fields["status"] = status_l[j]
            fields["job"] = records[j]
            fields["arrival"] = fields["release"] = fields["start"] = \
                arr_l[j]
            fields["t_slice"] = ts_l[j]
            fields["t_switch"] = tsw_l[j]
            fields["t_exec"] = charge[0]
            fields["energy"] = charge[1]
            fields["missed"] = miss_l[j]
            fields["voltage"] = point.voltage
            fields["frequency"] = point.frequency
            fields["boosted"] = point.is_boost
            fields["decision_s"] = decision_s
            fields["batch_size"] = 1
            append(outcome)
        m = end - k
        finish = fin_l[end - 1]
        stream.n_offered += m
        stream.now = finish
        stream._previous = points[idx_l[end - 1]]
        # Within a run every non-final finish is at or before the next
        # arrival, so only the last one can still be in flight for any
        # later backlog query.
        stream._finishes.append(finish)
        stream._in_flight += 1
        stream.epoch_log.append((block[k].index, m))
        observer = get_observer()
        if observer is not None:
            self._emit(observer, stream.outcomes[-m:])
        return m

    def _emit(self, observer, outcomes) -> None:
        """Replay the scalar path's per-job telemetry for one run.

        Counter and time-series *values* match the scalar machine
        exactly (windowed series aggregate by virtual time); only the
        emission order differs — the scalar path interleaves the next
        admission before the previous execution.
        """
        metrics = observer.metrics
        series = observer.timeseries
        stream = self.stream
        m = len(outcomes)
        n_fallback = sum(1 for o in outcomes if o.status == FALLBACK)
        metrics.inc("serve.offered", m)
        metrics.inc("serve.epochs")
        metrics.inc("serve.epoch_jobs", m)
        if n_fallback:
            metrics.inc("serve.fallback", n_fallback)
        if m - n_fallback:
            metrics.inc("serve.completed", m - n_fallback)
        slo_live = (observer.slo is not None and stream.slo_live)
        for o in outcomes:
            series.observe("serve.shed", o.arrival, 0.0)
            stream.record_executed(observer, o)
            if slo_live:
                observer.slo.evaluate(series, upto_t=o.finish)


def drive_stream_vectorized(stream: AcceleratorStream,
                            jobs: Sequence[StreamJob]) -> None:
    """Drive one arrival-sorted stream: block-planned runs where the
    decisions decouple, the scalar state machine everywhere else.
    Equivalent to ``offer`` per job plus ``drain``.
    """
    engine = EpochEngine(stream)
    n = len(jobs)
    i = 0
    while i < n:
        sjob = jobs[i]
        while stream._queue and max(stream.now,
                                    stream._queue[0].arrival) \
                <= sjob.arrival:
            stream.run_batch()
        if (engine.eligible and not stream._queue
                and stream.now <= sjob.arrival):
            committed = engine.run_epoch(jobs, i)
            if committed:
                i += committed
                continue
        stream.admit(sjob)
        i += 1
    stream.drain()

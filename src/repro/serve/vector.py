"""Virtual serving: block-planned execution.

The scalar machine (:mod:`repro.serve.server`) walks the stream one
arrival at a time — admission check, prediction, ``select_level``,
energy decomposition, all as interpreted Python per job.  This module
drives *exactly the same state machine*, but decides whole **blocks**
of arrivals at once wherever the decisions decouple.  Lone streams and
fleet shards are both served this way on the virtual clock; realtime
serving stays on the scalar machine.

A job is *uncoupled* when it arrives to an empty queue and an idle
server (the virtual clock at or before its arrival).  The scalar
machine then starts it at its arrival, in a micro-batch of one, and
cannot shed it, so its budget is the deadline and — for a
:attr:`~repro.dvfs.Controller.vectorizable` controller, whose plan is
a pure function of the job and its budget — its level follows in
closed form.  When serving reaches an uncoupled arrival no plan
covers, it plans that arrival and the next ``BLOCK - 1`` ones in one
numpy pass, as if each started at its arrival: level and slice time
from :meth:`~repro.dvfs.Controller.plan_batch`, execution time, and
finish, miss flag and energy for both switch cases (no switch, and
``ServeConfig.t_switch``).  It also marks each job's *chain bit*: its
finish, with the switch decided against the previous job's planned
level, is at or before the next arrival, so that next job is
uncoupled too.

Each uncoupled arrival then commits a **run** from the block's Python
lists, with no numpy call: the first job takes its switch case from
the stream's current level, and the run extends while the chain bits
hold.  A run ends at a broken chain or at the block's end; the next
arrival takes the scalar path if it is coupled, or starts a new run.
Every run lands in ``AcceleratorStream.epoch_log`` as ``(first_index,
n_jobs)``, audited by :func:`repro.check.check_epochs`.

Every committed outcome is **bit-identical** to the scalar machine's
(:func:`repro.serve.virtual_outcomes` canonical form): the kernels
replicate the scalar evaluation order operation by operation, and
per-level energy constants are computed by the scalar model code and
gathered by level index.  ``decision_s`` is the wall time to predict a
job and select its level on both paths; a planned job carries its
block's predict-and-plan time divided by the block's job count (see
docs/serving.md).

A block is planned only when no predictor has to run: a
:class:`~repro.serve.server.RecordPredictor` replay, a scheme without
a slice, or a slice scheme without a predictor.  Any other predictor
(the live slice, a test double) takes the scalar machine, which
predicts each executed job exactly once and a shed job never.  The
scalar machine also runs every job when state coupling binds:

* a reactive controller (pid / history / governor) — every decision
  feeds the next;
* a non-empty queue or ``now`` past the arrival — micro-batches and
  queueing delays couple starts to earlier finishes;
* ``prediction_budget`` set — a wall-clock cutoff is per-measurement
  and cannot be replayed for a block;
* a slice-charging controller with no slice energy model, or a level
  table with duplicate points — the scalar diagnostics must surface.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..dvfs.energy import EnergyModel, JobActivity
from ..obs import get_observer
from ..runtime.episode import switch_window_energy
from ..units import TIME_EPS_REL
from .server import COMPLETED, FALLBACK, AcceleratorStream, \
    RecordPredictor, StreamOutcome, valid_prediction
from .stream import StreamJob

#: Arrivals planned at once.  A block costs a fixed number of numpy
#: calls, shared by every job it plans.
BLOCK = 1024


def _generic_energy(model) -> bool:
    """True when ``model`` uses the stock :class:`EnergyModel`
    decomposition, so its per-level constants can be precomputed and
    gathered.  Anything overriding ``job_energy``/``leakage_power``
    (e.g. test doubles) keeps the per-job scalar calls."""
    return (isinstance(model, EnergyModel)
            and type(model).job_energy is EnergyModel.job_energy
            and type(model).leakage_power is EnergyModel.leakage_power)


class _EnergyKit:
    """Bit-exact batched ``job_energy`` for one model over one table.

    The per-level voltage ratios and leakage powers are produced by
    the *scalar* model methods (``vr ** 3.0`` and friends are not
    replayed in numpy, where ``pow`` may round differently) and only
    gathered by level index; the per-activity 1 V dynamic energy is
    the scalar ``_dynamic_energy_1v`` memoized by activity identity —
    cycled streams share a handful of activity objects across
    thousands of jobs.
    """

    def __init__(self, model: EnergyModel, points: Sequence) -> None:
        self.model = model
        self.vr = np.array(
            [p.voltage / model.v_nominal for p in points], dtype=float)
        self.leak = np.array(
            [model.leakage_power(p) for p in points], dtype=float)
        self._dyn: dict = {}
        self._by_value: dict = {}

    def dyn1v(self, records) -> np.ndarray:
        """The 1 V dynamic energy of each record's activity."""
        memo = self._dyn
        out = []
        for record in records:
            activity = record.activity
            hit = memo.get(id(activity))
            if hit is None or hit[0] is not activity:
                hit = memo[id(activity)] = (activity,
                                            self._value(activity))
            out.append(hit[1])
        return np.array(out, dtype=float)

    def _value(self, activity: JobActivity) -> float:
        # An activity is fully determined by (cycles, block_cycles), so
        # a value key is exact even across distinct objects per job —
        # item order is kept because it fixes the summation order.
        key = (activity.cycles, tuple(activity.block_cycles.items()))
        value = self._by_value.get(key)
        if value is None:
            value = self.model._dynamic_energy_1v(activity)
            self._by_value[key] = value
        return value


class _SliceEnergyKit:
    """Batched slice-charge term: always at the nominal point, keyed
    by the slice's cycle count."""

    def __init__(self, model: EnergyModel, nominal) -> None:
        self.model = model
        self.nominal = nominal
        self.vr = nominal.voltage / model.v_nominal
        self.leak = model.leakage_power(nominal)
        self._dyn: dict = {}

    def dyn1v(self, records) -> np.ndarray:
        """The 1 V dynamic energy of each record's slice."""
        memo = self._dyn
        out = []
        for record in records:
            cycles = record.slice_cycles
            value = memo.get(cycles)
            if value is None:
                value = memo[cycles] = self.model._dynamic_energy_1v(
                    JobActivity(cycles=cycles))
            out.append(value)
        return np.array(out, dtype=float)


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
        self._freq = np.array([p.frequency for p in self._points])
        self._volt = np.array([p.voltage for p in self._points])
        self._boost = np.array([p.is_boost for p in self._points])
        predictor = stream.predictor
        uses_slice = self.controller.uses_slice
        self.eligible = (
            self.controller.vectorizable
            and self.levels.arrays().unique
            and self.config.prediction_budget is None
            and (not uses_slice or predictor is None
                 or type(predictor) is RecordPredictor)
            and not (uses_slice and stream.slice_energy_model is None))
        self._energy_kit = (
            _EnergyKit(stream.energy_model, self._points)
            if _generic_energy(stream.energy_model) else None)
        self._slice_kit = (
            _SliceEnergyKit(stream.slice_energy_model,
                            self.levels.nominal)
            if (stream.slice_energy_model is not None
                and _generic_energy(stream.slice_energy_model))
            else None)
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
        # A RecordPredictor replays the record's own values; the
        # scalar path's ``replace`` gives a value-identical record, so
        # the original stands in for it.
        return np.array([not valid_prediction(r.predicted_cycles,
                                              r.slice_cycles)
                         for r in records], dtype=bool)

    def _energies(self, records, idx: np.ndarray, t_slice: np.ndarray,
                  t_exec: np.ndarray, t_switch: float,
                  fallback: np.ndarray):
        """Per-job energy for both switch cases, bit-identical to the
        scalar decomposition ``(job + switch window) + slice``."""
        stream = self.stream
        kit = self._energy_kit
        if kit is not None:
            dyn = kit.dyn1v(records)
            vr = kit.vr[idx]
            leak = kit.leak[idx]
            job_e = (dyn * vr) * vr + leak * t_exec
            window_e = leak * t_switch
        else:
            model = stream.energy_model
            points = [self._points[k] for k in idx.tolist()]
            job_e = np.array([
                model.job_energy(r.activity, p, te)
                for r, p, te in zip(records, points, t_exec.tolist())])
            window_e = np.array([switch_window_energy(model, p, t_switch)
                                 for p in points])
        # Gathered once; the switch cases differ only in the window,
        # which the scalar path adds as 0.0 when the level holds.
        cases = [job_e + 0.0, job_e + window_e]
        chargeable = (~fallback) & self.controller.uses_slice \
            & (t_slice > 0.0)
        if chargeable.any():
            skit = self._slice_kit
            if skit is not None:
                dyn_s = skit.dyn1v(records)
                slice_e = (dyn_s * skit.vr) * skit.vr \
                    + skit.leak * t_slice
            else:
                slice_e = np.zeros(len(records))
                nominal = self.levels.nominal
                for k in np.flatnonzero(chargeable).tolist():
                    slice_e[k] = stream.slice_energy_model.job_energy(
                        JobActivity(cycles=records[k].slice_cycles),
                        nominal, float(t_slice[k]))
            cases = [np.where(chargeable, e + slice_e, e) for e in cases]
        return cases

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
        t_exec = np.array([r.actual_cycles for r in records],
                          dtype=float) / self._freq[idx]
        began = arr + t_slice
        finish = [(began + tsw) + t_exec for tsw in (0.0, t_switch)]
        late = TIME_EPS_REL * deadline
        missed = [(f - (arr + deadline)) > late for f in finish]
        energy = self._energies(records, idx, t_slice, t_exec, t_switch,
                                fallback)
        # The planned case switches against the previous job's planned
        # level, and the first job against the stream's current one:
        # the block's first run commits right after this plan.
        switched = np.zeros(n, dtype=bool)
        if self.controller.charge_overheads:
            switched[0] = (self._points[int(idx[0])]
                           != self.stream._previous)
            switched[1:] = idx[1:] != idx[:-1]
        cases = (finish, missed, energy)
        planned = [np.where(switched, one, zero) for zero, one in cases]
        # A run continuing at job j ends after the first job at or past
        # j whose planned finish passes its successor's arrival.
        breaks = np.flatnonzero(~(planned[0][:-1] <= arr[1:]))
        ends = np.append(breaks + 1, n)[
            np.searchsorted(breaks, np.arange(n))]
        status = ([FALLBACK if f else COMPLETED
                   for f in fallback.tolist()]
                  if n_live < n else [COMPLETED] * n)
        self._plan = (
            block, records, decision_s, t_switch, status, arr.tolist(),
            idx.tolist(), t_slice.tolist(), t_exec.tolist(),
            self._volt[idx].tolist(), self._freq[idx].tolist(),
            self._boost[idx].tolist(), switched.tolist(),
            np.where(switched, t_switch, 0.0).tolist(),
            [column.tolist() for column in planned], ends.tolist(),
            [np.where(switched, zero, one).tolist()
             for zero, one in cases])

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
         ts_l, te_l, vo_l, fr_l, bo_l, sw_l, tsw_l, planned, ends_l,
         other) = self._plan
        stream = self.stream
        k = start - self._first
        n = len(block)
        fin_l, miss_l, en_l = planned
        # The first job's switch case follows the stream's current
        # level, exactly as the scalar machine decides it.
        switch = (self.controller.charge_overheads
                  and self._points[idx_l[k]] != stream._previous)
        replanned = switch != sw_l[k]
        finish_k = other[0][k] if replanned else fin_l[k]
        end = ends_l[k + 1] if k + 1 < n and finish_k <= arr_l[k + 1] \
            else k + 1
        append = stream.outcomes.append
        new = StreamOutcome.__new__
        for j in range(k, end):
            # Frozen-dataclass __init__ pays object.__setattr__ per
            # field.  Storing into __dict__ field by field, in field
            # order, builds the identical (never-again-mutated) outcome
            # faster and keeps the class's shared key table, which a
            # bulk update() would replace with a copy of its own.
            outcome = new(StreamOutcome)
            fields = outcome.__dict__
            fields["index"] = block[j].index
            fields["status"] = status_l[j]
            fields["job"] = records[j]
            fields["arrival"] = fields["release"] = fields["start"] = \
                arr_l[j]
            fields["t_slice"] = ts_l[j]
            fields["t_switch"] = tsw_l[j]
            fields["t_exec"] = te_l[j]
            fields["energy"] = en_l[j]
            fields["missed"] = miss_l[j]
            fields["voltage"] = vo_l[j]
            fields["frequency"] = fr_l[j]
            fields["boosted"] = bo_l[j]
            fields["decision_s"] = decision_s
            fields["batch_size"] = 1
            append(outcome)
        m = end - k
        if replanned:  # the first job's switch case is not the plan's
            stream.outcomes[-m].__dict__.update(
                t_switch=t_switch if switch else 0.0,
                energy=other[2][k], missed=other[1][k])
        last = end - 1
        finish = fin_l[last] if m > 1 else finish_k
        stream.n_offered += m
        stream.now = finish
        stream._previous = self._points[idx_l[last]]
        # Within a run every non-final finish is at or before the next
        # arrival, so only the last one can still be in flight for any
        # later backlog query.
        stream._finishes.append(finish)
        stream._in_flight += 1
        stream.epoch_log.append((block[k].index, m))
        observer = get_observer()
        if observer is not None:
            self._emit(observer, stream.outcomes[-m:],
                       [finish_k] + fin_l[k + 1:end])
        return m

    def _emit(self, observer, outcomes, finishes) -> None:
        """Replay the scalar path's per-job telemetry for one run.

        Counter and time-series *values* match the scalar machine
        exactly (windowed series aggregate by virtual time); only the
        emission order differs — the scalar path interleaves the next
        admission before the previous execution.
        """
        metrics = observer.metrics
        series = observer.timeseries
        m = len(outcomes)
        n_fallback = sum(1 for o in outcomes if o.status == FALLBACK)
        metrics.inc("serve.offered", m)
        metrics.inc("serve.epochs")
        metrics.inc("serve.epoch_jobs", m)
        if n_fallback:
            metrics.inc("serve.fallback", n_fallback)
        if m - n_fallback:
            metrics.inc("serve.completed", m - n_fallback)
        slo_live = (observer.slo is not None and self.stream.slo_live)
        for o, finish in zip(outcomes, finishes):
            decision_ms = o.decision_s * 1e3
            series.observe("serve.shed", o.arrival, 0.0)
            metrics.observe("serve.decision_ms", decision_ms)
            metrics.observe("serve.batch_size", 1)
            series.observe("serve.miss", finish, 1.0 if o.missed else 0.0)
            series.observe("serve.fallback", finish,
                           1.0 if o.status == FALLBACK else 0.0)
            series.observe("serve.energy_per_job", finish, o.energy)
            series.observe("serve.decision_ms", finish, decision_ms)
            observer.emit(
                "sjob", stream=self.stream.name, index=o.index,
                status=o.status, arrival=o.arrival, release=o.arrival,
                start=o.arrival, t_slice=o.t_slice,
                t_switch=o.t_switch, t_exec=o.t_exec, energy=o.energy,
                missed=o.missed, decision_ms=decision_ms, batch_size=1)
            if slo_live:
                observer.slo.evaluate(series, upto_t=finish)


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

"""The vectorized serving decision plane: epoch-coalesced execution.

The scalar engine (:mod:`repro.serve.server`) walks the stream one
arrival at a time — admission check, prediction, ``select_level``,
energy decomposition, all as interpreted Python per job.  This module
replays *exactly the same state machine* as array programs over
**decision epochs**: maximal runs of consecutive arrivals whose
decisions are provably independent of each other's outcomes.

An epoch forms only in the uncoupled regime: the queue is empty, the
virtual clock has not overtaken the next arrival, and the stream's
controller is :attr:`~repro.dvfs.Controller.vectorizable` (its plan is
a pure function of the job and budget, and it learns nothing from
retired jobs).  In that regime the scalar engine provably executes
every job with ``start == arrival`` and micro-batches of exactly one,
and nothing can shed — so the engine *speculates* the whole window
under that assumption, decides every job with
:func:`~repro.dvfs.select_level_batch` and the batched energy
decomposition, then **verifies** the speculation with one vectorized
comparison: the committed prefix is the longest run where each job's
projected finish stays at or before its successor's arrival.  The
first violation ends the epoch; the stream falls back to the scalar
path until the coupling clears (the arrival after a long job sees
``now > arrival`` and takes the ordinary ``offer`` route).

Every committed outcome is **bit-identical** to the scalar engine's
(:func:`repro.serve.virtual_outcomes` canonical form): the kernels
replicate the scalar evaluation order operation by operation, and
energy per-level constants are computed by the scalar model code and
gathered by level index.  Only ``decision_s`` differs by design — it
is genuinely measured wall time, amortized per epoch (see
docs/serving.md).

Predictions come from the stream's one prediction path,
:meth:`~repro.serve.server.AcceleratorStream.predict_jobs`, which keeps
each speculated prediction on the stream until its job terminates: a
job past the committed prefix is not predicted again by the scalar
path or by the next epoch.

The engine declines (``run_epoch`` returns 0, the driver uses the
scalar path) whenever state coupling binds:

* a reactive controller (pid / history / governor) — every decision
  feeds the next;
* a non-empty queue or ``now`` past the next arrival — micro-batches
  and queueing delays couple starts to earlier finishes;
* ``prediction_budget`` set — a wall-clock cutoff is inherently
  per-measurement and cannot be replayed batch-equivalently;
* a slice-charging controller with no slice energy model, or a level
  table with duplicate points — the scalar diagnostics must surface.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from ..dvfs.energy import EnergyModel, JobActivity
from ..obs import get_observer
from ..runtime.episode import switch_window_energy
from ..runtime.jobs import JobRecord
from ..units import TIME_EPS_REL
from .server import COMPLETED, FALLBACK, AcceleratorStream, \
    RecordPredictor, StreamOutcome, valid_prediction
from .stream import StreamJob

#: Adaptive epoch window bounds: start small so a coupled stream pays
#: almost nothing for failed speculation, grow while epochs commit
#: fully.
MIN_EPOCH = 32
MAX_EPOCH = 1024


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

    def dyn1v(self, activity: JobActivity) -> float:
        hit = self._dyn.get(id(activity))
        if hit is not None and hit[0] is activity:
            return hit[1]
        # An activity is fully determined by (cycles, block_cycles), so
        # a value key is exact even across distinct objects per job —
        # item order is kept because it fixes the summation order.
        key = (activity.cycles, tuple(activity.block_cycles.items()))
        value = self._by_value.get(key)
        if value is None:
            value = self.model._dynamic_energy_1v(activity)
            self._by_value[key] = value
        self._dyn[id(activity)] = (activity, value)
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

    def dyn1v(self, slice_cycles: int) -> float:
        value = self._dyn.get(slice_cycles)
        if value is None:
            value = self.model._dynamic_energy_1v(
                JobActivity(cycles=slice_cycles))
            self._dyn[slice_cycles] = value
        return value


class EpochEngine:
    """Vectorized epoch executor bound to one
    :class:`~repro.serve.server.AcceleratorStream`."""

    def __init__(self, stream: AcceleratorStream) -> None:
        self.stream = stream
        self.levels = stream.levels
        self.config = stream.config
        self.controller = stream.controller
        arrays = self.levels.arrays()
        self._points = list(self.levels.points)
        if self.levels.boost is not None:
            self._points.append(self.levels.boost)
        self._freq = np.array([p.frequency for p in self._points])
        self._volt = np.array([p.voltage for p in self._points])
        self._boost = np.array([p.is_boost for p in self._points])
        self.eligible = (
            self.controller.vectorizable
            and arrays.unique
            and self.config.prediction_budget is None
            and not (self.controller.uses_slice
                     and stream.slice_energy_model is None))
        self._energy_kit = (
            _EnergyKit(stream.energy_model, self._points)
            if _generic_energy(stream.energy_model) else None)
        self._slice_kit = (
            _SliceEnergyKit(stream.slice_energy_model,
                            self.levels.nominal)
            if (stream.slice_energy_model is not None
                and _generic_energy(stream.slice_energy_model))
            else None)
        self.window = 64

    # -- prediction ----------------------------------------------------

    def _predict_epoch(self, window: Sequence[StreamJob]
                       ) -> Tuple[List[JobRecord], np.ndarray]:
        """The epoch's effective records and fallback mask.

        Two shortcuts run no predictor: a scheme without a slice (or a
        slice scheme without a predictor) and the zero-copy replay of
        a :class:`RecordPredictor`.  Everything else predicts through
        :meth:`AcceleratorStream.predict_jobs`, speculatively, so the
        jobs this epoch does not commit keep their predictions.
        """
        predictor = self.stream.predictor
        n = len(window)
        if not self.controller.uses_slice:
            return [sj.record for sj in window], np.zeros(n, dtype=bool)
        if predictor is None:
            return [sj.record for sj in window], np.ones(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        if isinstance(predictor, RecordPredictor):
            # The scalar path replays the record's own values through
            # ``replace`` — value-identical to the original record, so
            # the original is reused as the effective record.
            records = [sj.record for sj in window]
            for k, record in enumerate(records):
                if not valid_prediction(record.predicted_cycles,
                                        record.slice_cycles):
                    fallback[k] = True
            return records, fallback
        entries = self.stream.predict_jobs(window, speculative=True)
        records = []
        for k, (sjob, (record, _)) in enumerate(zip(window, entries)):
            if record is None:
                fallback[k] = True
                record = sjob.record
            records.append(record)
        return records, fallback

    # -- energy --------------------------------------------------------

    def _energies(self, records: List[JobRecord], idx: np.ndarray,
                  t_slice: np.ndarray, t_switch: np.ndarray,
                  t_exec: np.ndarray,
                  fallback: np.ndarray) -> np.ndarray:
        """Per-job energy, bit-identical to the scalar decomposition."""
        stream = self.stream
        uses_slice = self.controller.uses_slice
        chargeable = (~fallback) & uses_slice & (t_slice > 0.0)
        kit = self._energy_kit
        if kit is not None:
            dyn = np.array([kit.dyn1v(r.activity) for r in records])
            vr = kit.vr[idx]
            energy = (dyn * vr) * vr + kit.leak[idx] * t_exec
            energy = energy + kit.leak[idx] * t_switch
        else:
            energy = np.empty(len(records))
            for k, record in enumerate(records):
                point = self._points[idx[k]]
                e = stream.energy_model.job_energy(
                    record.activity, point, float(t_exec[k]))
                e += switch_window_energy(stream.energy_model, point,
                                          float(t_switch[k]))
                energy[k] = e
        if chargeable.any():
            skit = self._slice_kit
            if skit is not None:
                dyn_s = np.array([skit.dyn1v(r.slice_cycles)
                                  for r in records])
                slice_e = ((dyn_s * skit.vr) * skit.vr
                           + skit.leak * t_slice)
                energy = np.where(chargeable, energy + slice_e, energy)
            else:
                nominal = self.levels.nominal
                for k in np.flatnonzero(chargeable):
                    energy[k] = energy[k] + \
                        stream.slice_energy_model.job_energy(
                            JobActivity(cycles=records[k].slice_cycles),
                            nominal, float(t_slice[k]))
        return energy

    # -- the epoch -----------------------------------------------------

    def run_epoch(self, jobs: Sequence[StreamJob], start: int) -> int:
        """Speculate, decide, verify and commit one epoch.

        Returns how many jobs were committed (0 = the epoch declined
        and the caller must take the scalar path for ``jobs[start]``).
        Preconditions (checked by the driver): the queue is empty and
        ``stream.now <= jobs[start].arrival``.
        """
        window = jobs[start:start + self.window]
        n = len(window)
        if n < 2:
            return 0
        t0 = time.perf_counter()
        records, fallback = self._predict_epoch(window)
        arr = np.array([sj.arrival for sj in window], dtype=float)
        # The scalar budget is (release + deadline) - start with
        # start == release in this regime — elementwise, not constant.
        budgets = (arr + self.config.deadline) - arr
        nominal_idx = self.levels.index_of(self.levels.nominal)
        idx = np.full(n, nominal_idx, dtype=np.int64)
        t_slice = np.zeros(n)
        live = ~fallback
        if live.any():
            live_pos = np.flatnonzero(live)
            plan = self.controller.plan_batch(
                [records[k] for k in live_pos], budgets[live])
            if plan is None:
                return 0
            idx[live] = plan.level_index
            t_slice[live] = plan.t_slice
        # Switch charging: one lag of the level chain, seeded with the
        # stream's current point.
        try:
            prev_first = self.levels.index_of(self.stream._previous)
        except KeyError:
            return 0
        prev = np.empty(n, dtype=np.int64)
        prev[0] = prev_first
        prev[1:] = idx[:-1]
        if self.controller.charge_overheads:
            t_switch = np.where(idx != prev, self.config.t_switch, 0.0)
        else:
            t_switch = np.zeros(n)
        actual = np.array([r.actual_cycles for r in records],
                          dtype=float)
        t_exec = actual / self._freq[idx]
        finish = ((arr + t_slice) + t_switch) + t_exec
        # Verify the speculation: the prefix holds while each finish
        # stays at or before the next arrival (start == arrival).
        chain = finish[:-1] <= arr[1:]
        m = n if bool(chain.all()) else int(np.argmax(~chain)) + 1
        deadline = self.config.deadline
        missed = (finish - (arr + deadline)) > TIME_EPS_REL * deadline
        energy = self._energies(records[:m], idx[:m], t_slice[:m],
                                t_switch[:m], t_exec[:m], fallback[:m])
        decision_s = (time.perf_counter() - t0) / m
        self._commit(window, records, m, arr, idx, t_slice, t_switch,
                     t_exec, finish, missed, energy, fallback,
                     decision_s)
        # Adapt the window: grow while speculation holds, shrink to
        # the committed scale when it breaks.
        if m == n:
            self.window = min(self.window * 2, MAX_EPOCH)
        else:
            self.window = max(MIN_EPOCH, 1 << int(m).bit_length())
        return m

    def _commit(self, window, records, m, arr, idx, t_slice, t_switch,
                t_exec, finish, missed, energy, fallback,
                decision_s: float) -> None:
        stream = self.stream
        cols = [a[:m].tolist() for a in
                (t_slice, t_switch, t_exec, finish, missed, energy,
                 self._volt[idx[:m]], self._freq[idx[:m]],
                 self._boost[idx[:m]])]
        ts_l, tsw_l, te_l, fin_l, miss_l, en_l, vo_l, fr_l, bo_l = cols
        fb_l = fallback[:m].tolist()
        append = stream.outcomes.append
        new = StreamOutcome.__new__
        for k in range(m):
            sjob = window[k]
            # Frozen-dataclass __init__ pays object.__setattr__ per
            # field; populating __dict__ directly builds the identical
            # (never-again-mutated) outcome at a fraction of the cost.
            outcome = new(StreamOutcome)
            outcome.__dict__.update(
                index=sjob.index,
                status=FALLBACK if fb_l[k] else COMPLETED,
                job=records[k], arrival=sjob.arrival,
                release=sjob.arrival, start=sjob.arrival,
                t_slice=ts_l[k], t_switch=tsw_l[k], t_exec=te_l[k],
                energy=en_l[k], missed=miss_l[k],
                voltage=vo_l[k], frequency=fr_l[k], boosted=bo_l[k],
                decision_s=decision_s, batch_size=1,
            )
            append(outcome)
        stream.n_offered += m
        stream.now = fin_l[-1]
        stream._previous = self._points[int(idx[m - 1])]
        # Within the epoch every non-final finish is at or before the
        # next arrival, so only the last one can still be in flight
        # for any later backlog query.
        stream._finishes.append(fin_l[-1])
        stream._in_flight += 1
        stream.epoch_log.append((window[0].index, m))
        kept = stream._kept
        if kept:
            for sjob in window[:m]:
                kept.pop(sjob.index, None)
        observer = get_observer()
        if observer is not None:
            self._emit(observer, window, m, fin_l, miss_l, en_l,
                       ts_l, tsw_l, te_l, fallback, decision_s)

    def _emit(self, observer, window, m, fin_l, miss_l, en_l, ts_l,
              tsw_l, te_l, fallback, decision_s: float) -> None:
        """Replay the scalar path's per-job telemetry for the epoch.

        Counter and time-series *values* match the scalar engine
        exactly (windowed series aggregate by virtual time); only the
        emission order differs — the scalar path interleaves the next
        admission before the previous execution.
        """
        metrics = observer.metrics
        series = observer.timeseries
        n_fallback = int(sum(1 for k in range(m) if fallback[k]))
        metrics.inc("serve.offered", m)
        metrics.inc("serve.epochs")
        metrics.inc("serve.epoch_jobs", m)
        if n_fallback:
            metrics.inc("serve.fallback", n_fallback)
        if m - n_fallback:
            metrics.inc("serve.completed", m - n_fallback)
        slo_live = (observer.slo is not None and self.stream.slo_live)
        for k in range(m):
            sjob = window[k]
            status = FALLBACK if fallback[k] else COMPLETED
            series.observe("serve.shed", sjob.arrival, 0.0)
            metrics.observe("serve.decision_ms", decision_s * 1e3)
            metrics.observe("serve.batch_size", 1)
            series.observe("serve.miss", fin_l[k],
                           1.0 if miss_l[k] else 0.0)
            series.observe("serve.fallback", fin_l[k],
                           1.0 if fallback[k] else 0.0)
            series.observe("serve.energy_per_job", fin_l[k], en_l[k])
            series.observe("serve.decision_ms", fin_l[k],
                           decision_s * 1e3)
            observer.emit(
                "sjob", stream=self.stream.name, index=sjob.index,
                status=status, arrival=sjob.arrival,
                release=sjob.arrival, start=sjob.arrival,
                t_slice=ts_l[k], t_switch=tsw_l[k], t_exec=te_l[k],
                energy=en_l[k], missed=miss_l[k],
                decision_ms=decision_s * 1e3, batch_size=1)
            if slo_live:
                observer.slo.evaluate(series, upto_t=fin_l[k])


def drive_stream_vectorized(stream: AcceleratorStream,
                            jobs: Sequence[StreamJob]) -> None:
    """Drive one arrival-sorted stream, epoch-coalescing where the
    decisions decouple and deferring to the scalar state machine
    everywhere else.  Equivalent to ``offer`` per job plus ``drain``.
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

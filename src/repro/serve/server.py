"""The online serving runtime: one controller state machine per stream.

This is the paper's mechanism run the way it is framed (Sec. 2/Fig 4):
jobs *arrive*, the prediction slice runs *before* each job, and the
DVFS controller picks a level in real time.  Each
:class:`AcceleratorStream` is a bounded-admission, FIFO, single-server
queue over one accelerator:

* **admission** — a job arriving while the stream's *virtual backlog*
  (admitted jobs not yet finished on the simulated clock) has reached
  ``queue_depth`` is **shed**: counted, never executed;
* **micro-batching** — when the server frees up it takes up to
  ``batch_max`` queued jobs at once and runs their slice predictions
  together, amortizing per-decision overhead;
* **graceful degradation** — if a prediction fails or overruns its
  wall-clock ``prediction_budget``, the job **falls back** to
  max-frequency (nominal) execution with no slice charge: the event
  is counted, the stream keeps serving.

Execution accounting mirrors :func:`~repro.runtime.episode.run_episode`
exactly — the same energy decomposition, deadline epsilon, and switch
charging rules — but on a stream timeline where ``release`` is the
arrival instant rather than a rigid period boundary.  Two clocks are
maintained deliberately: the *virtual clock* (simulated accelerator
time, used for all time/energy accounting and backpressure) and the
*wall clock* (decision latency, realtime pacing).  ``realtime=False``
drives the virtual clock as fast as the host allows; ``realtime=True``
paces arrivals against the wall clock through asyncio, which is what
``repro serve`` and the throughput benchmark measure.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..dvfs.controllers import Controller
from ..dvfs.energy import EnergyModel, JobActivity
from ..model.linear import predict_cycles_batch
from ..obs import get_observer, span
from ..runtime.episode import strict_checks_enabled, switch_window_energy
from ..runtime.jobs import JobRecord
from ..units import DVFS_SWITCH_TIME, FRAME_DEADLINE_60FPS, deadline_missed
from .stream import StreamJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flow.pipeline import GeneratedPredictor

#: Terminal states of an admitted-or-shed job.  Every offered job ends
#: in exactly one of these — the conservation law ``check_stream``
#: enforces.
COMPLETED = "completed"
FALLBACK = "fallback"
SHED = "shed"
TERMINAL_STATES = (COMPLETED, FALLBACK, SHED)

#: Decision-plane engines, selected per stream by ``ServeConfig.engine``.
#: ``auto`` (the default) runs the epoch-coalescing vectorized engine
#: (:mod:`repro.serve.vector`) wherever its eligibility proof holds and
#: the scalar state machine everywhere else; ``scalar`` forces the
#: per-job reference path.
ENGINES = ("auto", "scalar")


@dataclass(frozen=True)
class ServeConfig:
    """Per-stream serving policy knobs."""

    deadline: float = FRAME_DEADLINE_60FPS
    t_switch: float = DVFS_SWITCH_TIME
    queue_depth: int = 64          # admission bound (virtual backlog)
    batch_max: int = 8             # micro-batch size cap
    prediction_budget: Optional[float] = None  # wall seconds / decision
    strict: Optional[bool] = None  # None = follow REPRO_CHECK
    engine: str = "auto"           # one of ENGINES

    def __post_init__(self) -> None:
        if self.deadline <= 0.0:
            raise ValueError("deadline must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")


class RecordPredictor:
    """Replay the precomputed slice prediction carried by the record.

    The offline flow already ran the slice for every test record;
    replaying it keeps soak tests deterministic and costs nanoseconds.
    """

    name = "record"

    def predict(self, sjob: StreamJob) -> Tuple[float, int]:
        """Replay the record's offline prediction and slice cycles."""
        record = sjob.record
        if record.predicted_cycles is None:
            raise ValueError(
                f"job {record.index} carries no precomputed prediction")
        return float(record.predicted_cycles), record.slice_cycles


class SlicePredictor:
    """Run the hardware prediction slice online, per job.

    Unlike :meth:`GeneratedPredictor.run_slice` (which builds a fresh
    simulation per call for one-shot use), the serving predictor keeps
    one simulation and one feature recorder alive for the stream's
    lifetime and resets them per job — the steady-state hot path.
    """

    name = "slice"

    def __init__(self, package: "GeneratedPredictor",
                 max_cycles: int = 50_000_000):
        from ..analysis.instrument import FeatureRecorder
        from ..rtl.backend import make_simulation, resolve_backend

        self._package = package
        self._recorder = FeatureRecorder(package.feature_set)
        self._sim = make_simulation(package.hw_slice.module,
                                    listener=self._recorder,
                                    track_state_cycles=False)
        self._max_cycles = max_cycles
        #: Under the ``batch`` backend a serving micro-batch is
        #: predicted in one lockstep array step (``predict_batch``);
        #: other backends keep the per-job path.
        self.batch_capable = resolve_backend() == "batch"
        self._batch_sim = None

    def predict(self, sjob: StreamJob) -> Tuple[float, int]:
        """Run the hardware slice on the job's input, live."""
        if sjob.job_input is None:
            raise ValueError(
                f"job {sjob.index} has no encoded input; build the "
                "stream with with_inputs=True to predict online")
        self._sim.reset()
        self._recorder.start_job()
        self._sim.load(*sjob.job_input.as_pair(), ignore_unknown=True)
        result = self._sim.run(max_cycles=self._max_cycles)
        if not result.finished:
            raise RuntimeError(
                f"slice of {self._package.design_name} did not finish "
                f"within {self._max_cycles} cycles")
        predicted = self._package.predictor.predict_one(
            self._recorder.vector())
        return max(predicted, 0.0), result.cycles

    def predict_batch(self, sjobs: Sequence[StreamJob]
                      ) -> List[Optional[Tuple[float, int]]]:
        """Predict a whole micro-batch in one lockstep array step.

        One entry per job, aligned with ``sjobs``: ``(predicted,
        slice_cycles)`` on success, ``None`` where that job cannot be
        predicted (no encoded input, or its slice run did not finish)
        — per-job fallback semantics identical to calling
        :meth:`predict` once per job.  Only meaningful when
        ``batch_capable`` (the ``batch`` backend is active).
        """
        from ..analysis.instrument import _matrix_from_batch
        from ..rtl.batchsim import BatchSimulation

        if self._batch_sim is None:
            self._batch_sim = BatchSimulation(
                self._package.hw_slice.module)
        out: List[Optional[Tuple[float, int]]] = [None] * len(sjobs)
        jobs = []
        rows = []
        for i, sjob in enumerate(sjobs):
            if sjob.job_input is None:
                continue
            jobs.append(sjob.job_input.as_pair())
            rows.append(i)
        if not jobs:
            return out
        result = self._batch_sim.run_jobs(
            jobs, max_cycles=self._max_cycles, ignore_unknown=True)
        x = _matrix_from_batch(self._package.feature_set,
                               result.events, len(jobs))
        # One einsum over the whole feature matrix; the kernel is
        # row-stable, so every job's prediction is independent of how
        # many neighbours share its batch — which is what lets the
        # scalar and vectorized engines (different batch shapes, same
        # kernel) stay bit-identical.
        predicted = predict_cycles_batch(self._package.predictor, x)
        for j, i in enumerate(rows):
            if not result.finished[j]:
                continue
            out[i] = (max(float(predicted[j]), 0.0),
                      int(result.cycles[j]))
        return out


@dataclass(frozen=True)
class StreamOutcome:
    """Terminal record of one offered job.

    Shed jobs never touch the accelerator: their time and energy
    fields are all zero and ``frequency`` is 0 (no operating point was
    ever selected).  Executed jobs carry the *effective* record — for
    online prediction, ``job.predicted_cycles``/``job.slice_cycles``
    are what the slice produced at serve time — so the invariant
    checker can re-derive every identity from the outcome alone.
    """

    index: int
    status: str
    job: JobRecord
    arrival: float
    release: float = 0.0
    start: float = 0.0
    t_slice: float = 0.0
    t_switch: float = 0.0
    t_exec: float = 0.0
    energy: float = 0.0
    missed: bool = False
    voltage: float = 0.0
    frequency: float = 0.0
    boosted: bool = False
    decision_s: float = 0.0
    batch_size: int = 0

    @property
    def total_time(self) -> float:
        return self.t_slice + self.t_switch + self.t_exec

    @property
    def finish(self) -> float:
        return self.start + self.total_time

    @property
    def executed(self) -> bool:
        return self.status != SHED


@dataclass
class StreamResult:
    """Everything one stream did, in arrival order."""

    stream: str
    scheme: str
    deadline: float
    outcomes: List[StreamOutcome]
    n_offered: int
    wall_s: float = 0.0

    @property
    def executed(self) -> List[StreamOutcome]:
        return [o for o in self.outcomes if o.executed]

    @property
    def n_admitted(self) -> int:
        return sum(1 for o in self.outcomes if o.executed)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == COMPLETED)

    @property
    def n_fallback(self) -> int:
        return sum(1 for o in self.outcomes if o.status == FALLBACK)

    @property
    def n_shed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == SHED)

    @property
    def fallback_rate(self) -> float:
        admitted = self.n_admitted
        return self.n_fallback / admitted if admitted else 0.0

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_offered if self.n_offered else 0.0

    @property
    def miss_count(self) -> int:
        return sum(1 for o in self.outcomes if o.missed)

    @property
    def total_energy(self) -> float:
        return sum(o.energy for o in self.outcomes)

    @property
    def makespan(self) -> float:
        """Virtual time from first arrival to last finish."""
        executed = self.executed
        if not executed:
            return 0.0
        return max(o.finish for o in executed)

    def decision_latencies(self) -> List[float]:
        """Wall-clock decision latencies of executed jobs, sorted."""
        return sorted(o.decision_s for o in self.executed)


class AcceleratorStream:
    """One accelerator's controller state machine over a job stream.

    The stream owns the virtual clock (``now``), the last operating
    point (for switch charging), the admission window, and the
    controller.  ``offer`` is the synchronous virtual-time entry
    point; :func:`serve_streams` drives it either flat-out (virtual
    mode) or paced by asyncio (realtime mode).
    """

    def __init__(self, name: str, controller: Controller,
                 energy_model: EnergyModel,
                 slice_energy_model: Optional[EnergyModel] = None,
                 predictor=None,
                 config: ServeConfig = ServeConfig()):
        self.name = name
        self.controller = controller
        self.levels = controller.levels
        self.energy_model = energy_model
        self.slice_energy_model = slice_energy_model
        self.predictor = predictor
        self.config = config
        self._queue: deque = deque()     # admitted, not yet executed
        self._finishes: deque = deque()  # virtual finishes of executed
        #: Incremental in-flight counter: executed jobs whose virtual
        #: finish has not yet been passed by an arrival.  Maintained at
        #: execute/expiry so admission never rescans outcomes — at
        #: fleet scale a per-arrival rescan of the outcome list is
        #: O(n²) over the stream.
        self._in_flight = 0
        self.outcomes: List[StreamOutcome] = []
        self.n_offered = 0
        #: Committed decision epochs as ``(first_index, n_jobs)``
        #: pairs — written only by the vectorized engine, audited by
        #: :func:`repro.check.check_epochs` in strict mode.
        self.epoch_log: List[Tuple[int, int]] = []
        self.now = 0.0
        self._previous = self.levels.nominal
        #: Evaluate the ambient SLO tracker after every batch.  Left
        #: True for a lone stream; :func:`serve_streams` clears it
        #: when several streams share the global windowed series, in
        #: which case only the end-of-run finalize judges windows
        #: (judging mid-run would see a window before every stream
        #: had written into it).
        self.slo_live = True
        self.controller.reset()

    # -- admission -----------------------------------------------------

    def backlog(self, arrival: float) -> int:
        """Virtual backlog at ``arrival``: queued + still-executing.

        An executed job contributes while its *virtual* finish lies
        beyond the arrival instant; anything admitted but not yet
        executed always contributes.  This is what a real admission
        controller would read off its queue — computed here from the
        simulated clock so virtual and realtime modes shed
        identically under the same arrival sequence.

        Amortized O(1): the in-flight count is carried incrementally
        (incremented per execute, decremented as finishes expire), and
        each finish instant is enqueued and expired exactly once over
        the stream's lifetime.
        """
        while self._finishes and self._finishes[0] <= arrival:
            self._finishes.popleft()
            self._in_flight -= 1
        return len(self._queue) + self._in_flight

    def _shed(self, sjob: StreamJob) -> None:
        self.outcomes.append(StreamOutcome(
            index=sjob.index, status=SHED, job=sjob.record,
            arrival=sjob.arrival, release=sjob.arrival))
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.shed")
            observer.emit(
                "sjob", stream=self.name, index=sjob.index,
                status=SHED, arrival=sjob.arrival)

    def admit(self, sjob: StreamJob) -> bool:
        """Admit or shed one arriving job (no execution yet)."""
        self.n_offered += 1
        shed = self.backlog(sjob.arrival) >= self.config.queue_depth
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.offered")
            # Shed indicator per *offered* job at its arrival instant:
            # the window mean is the shed rate of that window.
            observer.timeseries.observe("serve.shed", sjob.arrival,
                                        1.0 if shed else 0.0)
        if shed:
            self._shed(sjob)
            return False
        self._queue.append(sjob)
        return True

    # -- execution -----------------------------------------------------

    def _predict(self, sjob: StreamJob) -> Tuple[Optional[JobRecord], float]:
        """Run the prediction path; ``None`` record means fall back."""
        t0 = time.perf_counter()
        if not self.controller.uses_slice:
            return sjob.record, time.perf_counter() - t0
        if self.predictor is None:
            return None, time.perf_counter() - t0
        try:
            predicted, slice_cycles = self.predictor.predict(sjob)
        except (ValueError, RuntimeError):
            return None, time.perf_counter() - t0
        record = replace(sjob.record, predicted_cycles=predicted,
                         slice_cycles=slice_cycles)
        decision_s = time.perf_counter() - t0
        budget = self.config.prediction_budget
        if budget is not None and decision_s > budget:
            return None, decision_s
        return record, decision_s

    def _predict_all(self, batch: List[StreamJob]
                     ) -> List[Tuple[Optional[JobRecord], float]]:
        """The batch's prediction pass, one ``_predict``-shaped entry
        per job.

        A batch-capable predictor (``SlicePredictor`` under the
        ``batch`` backend) predicts the whole micro-batch in one
        lockstep array step; the measured wall time is amortized
        across the jobs as each entry's ``decision_s`` and judged
        against the per-job prediction budget.  Any other predictor —
        and any batch-level failure — degrades to the per-job path,
        with its per-job fallback semantics.
        """
        if (not self.controller.uses_slice or self.predictor is None
                or not getattr(self.predictor, "batch_capable", False)):
            return [self._predict(sjob) for sjob in batch]
        t0 = time.perf_counter()
        try:
            results = self.predictor.predict_batch(batch)
        except (ValueError, RuntimeError):
            return [self._predict(sjob) for sjob in batch]
        decision_s = (time.perf_counter() - t0) / max(len(batch), 1)
        budget = self.config.prediction_budget
        over_budget = budget is not None and decision_s > budget
        planned: List[Tuple[Optional[JobRecord], float]] = []
        for sjob, entry in zip(batch, results):
            if entry is None or over_budget:
                planned.append((None, decision_s))
                continue
            predicted, slice_cycles = entry
            planned.append((replace(sjob.record,
                                    predicted_cycles=predicted,
                                    slice_cycles=slice_cycles),
                            decision_s))
        return planned

    def _execute(self, sjob: StreamJob, record: Optional[JobRecord],
                 decision_s: float, batch_size: int) -> StreamOutcome:
        """Advance the virtual clock through one admitted job."""
        controller = self.controller
        release = sjob.arrival
        start = max(self.now, release)
        budget = release + self.config.deadline - start
        fallback = record is None
        if fallback:
            # Abandon the prediction path entirely: dispatch at the
            # fastest non-boost point, charge no slice time or energy.
            record = sjob.record
            point = self.levels.fastest()
            t_slice = 0.0
        else:
            plan = controller.plan(record, budget)
            point = plan.point
            t_slice = plan.t_slice

        switch_needed = (point != self._previous
                         and controller.charge_overheads)
        t_switch = self.config.t_switch if switch_needed else 0.0
        t_exec = record.actual_cycles / point.frequency
        finish = start + t_slice + t_switch + t_exec
        missed = deadline_missed(finish, release, self.config.deadline)

        energy = self.energy_model.job_energy(record.activity, point,
                                              t_exec)
        energy += switch_window_energy(self.energy_model, point, t_switch)
        if not fallback and controller.uses_slice and t_slice > 0.0:
            if self.slice_energy_model is None:
                raise ValueError(
                    f"stream {self.name} runs a slice but has no "
                    "slice energy model")
            energy += self.slice_energy_model.job_energy(
                JobActivity(cycles=record.slice_cycles),
                self.levels.nominal, t_slice)

        self.now = finish
        self._previous = point
        self._finishes.append(finish)
        self._in_flight += 1
        controller.observe(record)

        outcome = StreamOutcome(
            index=sjob.index,
            status=FALLBACK if fallback else COMPLETED,
            job=record, arrival=sjob.arrival,
            release=release, start=start,
            t_slice=t_slice, t_switch=t_switch, t_exec=t_exec,
            energy=energy, missed=missed,
            voltage=point.voltage, frequency=point.frequency,
            boosted=point.is_boost,
            decision_s=decision_s, batch_size=batch_size,
        )
        self.outcomes.append(outcome)
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.fallback" if fallback
                                 else "serve.completed")
            observer.metrics.observe("serve.decision_ms",
                                     decision_s * 1e3)
            observer.metrics.observe("serve.batch_size", batch_size)
            # Windowed signals keyed on the virtual finish instant:
            # 0/1 indicators make each window's mean a rate, so the
            # SLO tracker and the report dashboard read rates and
            # energy-per-job straight off the windows.
            ts = observer.timeseries
            ts.observe("serve.miss", finish, 1.0 if missed else 0.0)
            ts.observe("serve.fallback", finish,
                       1.0 if fallback else 0.0)
            ts.observe("serve.energy_per_job", finish, energy)
            ts.observe("serve.decision_ms", finish, decision_s * 1e3)
            observer.emit(
                "sjob", stream=self.name, index=sjob.index,
                status=outcome.status, arrival=sjob.arrival,
                release=release, start=start, t_slice=t_slice,
                t_switch=t_switch, t_exec=t_exec, energy=energy,
                missed=missed, decision_ms=decision_s * 1e3,
                batch_size=batch_size)
        return outcome

    def run_batch(self) -> List[StreamOutcome]:
        """Pop and execute one micro-batch from the admission queue.

        Predictions for the whole batch run first (the amortized
        slice pass), then each job advances the virtual clock in FIFO
        order.  Returns the executed outcomes (empty = queue empty).
        """
        batch: List[StreamJob] = []
        while self._queue and len(batch) < self.config.batch_max:
            batch.append(self._queue.popleft())
        if not batch:
            return []
        planned = self._predict_all(batch)
        executed = [
            self._execute(sjob, record, decision_s, len(batch))
            for sjob, (record, decision_s) in zip(batch, planned)
        ]
        observer = get_observer()
        if (observer is not None and observer.slo is not None
                and self.slo_live):
            # Judge only windows strictly before the clock: the
            # current window may still receive samples.
            observer.slo.evaluate(observer.timeseries, upto_t=self.now)
        return executed

    def offer(self, sjob: StreamJob) -> None:
        """Virtual-time entry point: drain due work, then admit.

        Before an arrival at ``a`` is admitted, every queued job that
        would have *started* by ``a`` on the virtual clock has
        already been executed — so the queue holds exactly the jobs a
        wall-clock server would still have waiting, and micro-batches
        form naturally under overload (``now`` ahead of arrivals).
        """
        while self._queue and max(self.now, self._queue[0].arrival) \
                <= sjob.arrival:
            self.run_batch()
        self.admit(sjob)

    def drain(self) -> None:
        """Execute everything still queued (end of stream)."""
        while self._queue:
            self.run_batch()

    # -- results -------------------------------------------------------

    def result(self, wall_s: float = 0.0) -> StreamResult:
        """Freeze the stream's accounting into a ``StreamResult``."""
        outcomes = sorted(self.outcomes, key=lambda o: o.index)
        return StreamResult(
            stream=self.name, scheme=self.controller.name,
            deadline=self.config.deadline, outcomes=outcomes,
            n_offered=self.n_offered, wall_s=wall_s,
        )


def _check_result(stream: AcceleratorStream,
                  result: StreamResult) -> None:
    """Strict-mode hook: replay the stream through the checker."""
    strict = stream.config.strict
    if strict is None:
        strict = strict_checks_enabled()
    if not strict:
        return
    # Imported lazily: repro.check imports this module's dataclasses.
    from ..check import InvariantError, check_epochs, check_stream
    violations = check_stream(
        result,
        energy_model=stream.energy_model,
        slice_energy_model=stream.slice_energy_model,
        levels=stream.levels,
        t_switch=stream.config.t_switch,
        uses_slice=stream.controller.uses_slice,
        charge_overheads=stream.controller.charge_overheads,
    )
    if stream.epoch_log:
        violations = list(violations) + list(
            check_epochs(result, stream.epoch_log))
    if violations:
        raise InvariantError(violations)


def _emit_stream_summary(result: StreamResult) -> None:
    observer = get_observer()
    if observer is None:
        return
    observer.emit(
        "stream",
        stream=result.stream, scheme=result.scheme,
        n_offered=result.n_offered, n_completed=result.n_completed,
        n_fallback=result.n_fallback, n_shed=result.n_shed,
        misses=result.miss_count, energy=result.total_energy,
        makespan=result.makespan, wall_s=result.wall_s,
    )


def _serve_virtual(stream: AcceleratorStream,
                   jobs: Sequence[StreamJob]) -> StreamResult:
    """Drive one stream on the virtual clock, as fast as possible.

    Under the ``auto`` engine the epoch-coalescing driver takes over —
    it vectorizes decision epochs where they decouple and replays the
    exact scalar ``offer``/``drain`` machine everywhere else.  Realtime
    mode always runs scalar: epochs would require arrivals that have
    not happened yet on the wall clock.

    Deliberately synchronous: virtual serving never awaits, and
    ``asyncio.run`` is far from free here — installing its SIGINT
    handler reprs the pending main task, which stringifies the whole
    queued job list (numpy feature arrays included) twice per run.
    """
    t0 = time.perf_counter()
    if stream.config.engine != "scalar":
        from .vector import drive_stream_vectorized
        drive_stream_vectorized(stream, jobs)
    else:
        for sjob in jobs:
            stream.offer(sjob)
        stream.drain()
    return stream.result(wall_s=time.perf_counter() - t0)


async def _serve_realtime(stream: AcceleratorStream,
                          jobs: Sequence[StreamJob]) -> StreamResult:
    """Pace one stream against the wall clock through asyncio.

    A submitter task sleeps until each arrival and admits it; the
    worker task pops micro-batches as they queue up.  Virtual-time
    accounting is identical to :func:`_serve_virtual`; what realtime
    mode adds is genuine wall-clock decision latency under load —
    the quantity the throughput benchmark gates on.
    """
    t0 = time.perf_counter()
    wake = asyncio.Event()
    done = False

    async def submitter() -> None:
        nonlocal done
        for sjob in jobs:
            delay = sjob.arrival - (time.perf_counter() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            stream.admit(sjob)
            wake.set()
        done = True
        wake.set()

    async def worker() -> None:
        while True:
            if not stream.run_batch():
                if done:
                    return
                wake.clear()
                await wake.wait()
            else:
                # Yield so the submitter keeps pace under load.
                await asyncio.sleep(0)

    await asyncio.gather(submitter(), worker())
    stream.drain()
    return stream.result(wall_s=time.perf_counter() - t0)


async def _serve_all(streams: Sequence[Tuple[AcceleratorStream,
                                             Sequence[StreamJob]]]
                     ) -> List[StreamResult]:
    tasks = [_serve_realtime(stream, jobs) for stream, jobs in streams]
    return list(await asyncio.gather(*tasks))


def serve_streams(streams: Sequence[Tuple[AcceleratorStream,
                                          Sequence[StreamJob]]],
                  realtime: bool = False) -> List[StreamResult]:
    """Serve several independent streams concurrently.

    Each ``(stream, jobs)`` pair runs to completion (jobs must be
    sorted by arrival); results come back in input order.  Strict
    mode (per-stream ``ServeConfig.strict`` or ``REPRO_CHECK``)
    replays every finished stream through
    :func:`repro.check.check_stream` and raises
    :class:`~repro.check.InvariantError` on any violation.
    """
    for _, jobs in streams:
        arrivals = [sjob.arrival for sjob in jobs]
        if arrivals != sorted(arrivals):
            raise ValueError("stream jobs must be sorted by arrival")
    observer = get_observer()
    if len(streams) > 1:
        # Several streams write into the same global windowed series;
        # a window is only complete once every stream has passed it,
        # so defer all SLO judgement to the end-of-run finalize.
        for stream, _ in streams:
            stream.slo_live = False
    with span("serve", streams=len(streams),
              mode="realtime" if realtime else "virtual"):
        if realtime:
            results = asyncio.run(_serve_all(streams))
        else:
            results = [_serve_virtual(stream, jobs)
                       for stream, jobs in streams]
    for (stream, _), result in zip(streams, results):
        _emit_stream_summary(result)
        _check_result(stream, result)
    if observer is not None and observer.slo is not None:
        observer.slo.finalize(observer.timeseries)
    return results


def serve_stream(stream: AcceleratorStream,
                 jobs: Sequence[StreamJob],
                 realtime: bool = False) -> StreamResult:
    """Serve a single stream (convenience wrapper)."""
    return serve_streams([(stream, jobs)], realtime=realtime)[0]

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
  ``batch_max`` queued jobs at once, predicts each of them, then
  executes them in FIFO order;
* **graceful degradation** — if a prediction fails or overruns its
  wall-clock ``prediction_budget``, the job **falls back** to
  max-frequency (nominal) execution with no slice charge: the event
  is counted, the stream keeps serving.

Each job is priced by :func:`~repro.runtime.jobs.charge_job`, through
one memo per stream that the block planner shares
(:meth:`AcceleratorStream.charge`), on a timeline where ``release``
is the job's arrival instant.  A periodic
episode (:func:`~repro.runtime.episode.run_episode`) is one such
stream: arrivals at ``i * deadline`` and a queue too deep to shed.
Two clocks are maintained deliberately:
the *virtual clock* (simulated accelerator time, used for all
time/energy accounting and backpressure) and the *wall clock*
(decision latency, realtime pacing).  ``realtime=False`` drives the
virtual clock as fast as the host allows; ``realtime=True`` paces
arrivals against the wall clock through asyncio (imported on that path
alone), which is what ``repro serve`` and the throughput benchmark
measure.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, \
    Tuple

from ..dvfs.controllers import Controller
from ..dvfs.energy import EnergyModel
from ..obs import get_observer, span
from ..runtime.jobs import JobRecord, charge_job, strict_checks_enabled
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


@dataclass(frozen=True)
class ServeConfig:
    """Per-stream serving policy knobs."""

    deadline: float = FRAME_DEADLINE_60FPS
    t_switch: float = DVFS_SWITCH_TIME
    queue_depth: int = 64          # admission bound (virtual backlog)
    batch_max: int = 8             # micro-batch size cap
    prediction_budget: Optional[float] = None  # wall seconds / decision
    strict: Optional[bool] = None  # None = follow REPRO_CHECK

    def __post_init__(self) -> None:
        # isfinite, because NaN passes a bare `<= 0` test: a NaN
        # deadline would report no misses, a NaN budget no fallbacks.
        if not (math.isfinite(self.deadline) and self.deadline > 0.0):
            raise ValueError(
                f"deadline must be finite and > 0, got {self.deadline!r}")
        if not (math.isfinite(self.t_switch) and self.t_switch >= 0.0):
            raise ValueError(
                f"t_switch must be finite and >= 0, got {self.t_switch!r}")
        # A NaN batch_max pops nothing, so serving never ends, and a
        # NaN queue_depth never sheds; counts must be integers.
        for key in ("queue_depth", "batch_max"):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(
                    f"{key} must be an integer >= 1, got {value!r}")
        budget = self.prediction_budget
        if budget is not None and not (math.isfinite(budget)
                                       and budget >= 0.0):
            raise ValueError(
                "prediction_budget must be None or finite and >= 0, "
                f"got {budget!r}")


def valid_prediction(predicted_cycles: Optional[float],
                     slice_cycles: int) -> bool:
    """True when a predictor result may plan a job.

    A missing, non-finite or negative cycle prediction, or negative
    slice cycles, is a failed prediction: the job falls back instead
    of being planned on it.  ``check_stream`` holds completed jobs to
    the same rule (``stream.prediction``).
    """
    return (predicted_cycles is not None
            and 0.0 <= predicted_cycles < math.inf
            and slice_cycles >= 0)


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

    Holds one :meth:`GeneratedPredictor.slice_runner` for the
    stream's lifetime: one simulation and one feature recorder, reset
    per job — the steady-state hot path.
    """

    name = "slice"

    def __init__(self, package: "GeneratedPredictor"):
        self._run = package.slice_runner()

    def predict(self, sjob: StreamJob) -> Tuple[float, int]:
        """Run the hardware slice on the job's input, live."""
        if sjob.job_input is None:
            raise ValueError(
                f"job {sjob.index} has no encoded input; build the "
                "stream with with_inputs=True to predict online")
        return self._run(sjob.job_input)


def _effective(sjob: StreamJob, predicted: float,
               slice_cycles: int) -> Optional[JobRecord]:
    """The job's record as predicted — the record itself when the
    prediction is its own, as in a block plan — or ``None`` for an
    invalid prediction (see :func:`valid_prediction`)."""
    if not valid_prediction(predicted, slice_cycles):
        return None
    record = sjob.record
    if (predicted == record.predicted_cycles
            and slice_cycles == record.slice_cycles):
        return record
    return replace(record, predicted_cycles=predicted,
                   slice_cycles=slice_cycles)


class StreamOutcome(NamedTuple):
    """Terminal record of one offered job.

    Shed jobs never touch the accelerator: their time and energy
    fields are all zero and ``frequency`` is 0 (no operating point was
    ever selected).  Executed jobs carry the *effective* record — for
    online prediction, ``job.predicted_cycles``/``job.slice_cycles``
    are what the slice produced at serve time — so the invariant
    checker can re-derive every identity from the outcome alone.

    A named tuple, built in one positional call by both serving paths:
    a served stream keeps one per offered job, and tuples hold no
    instance dict for the cyclic collector to traverse.  Edit a copy
    with ``_replace``.
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
    def finish(self) -> float:
        """Virtual completion instant, summed in the order the serving
        machine advances its clock."""
        return ((self.start + self.t_slice) + self.t_switch) + self.t_exec

    @property
    def executed(self) -> bool:
        return self.status != SHED


@dataclass
class StreamResult:
    """Everything one stream did, in arrival order; a periodic episode
    is a stream that never sheds.  ``epoch_log`` holds the block-planned
    runs as ``(first_index, n_jobs)`` pairs, which the checkers audit."""

    stream: str
    scheme: str
    deadline: float
    outcomes: List[StreamOutcome]
    n_offered: int
    wall_s: float = 0.0
    epoch_log: List[Tuple[int, int]] = field(default_factory=list)

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
    def miss_rate(self) -> float:
        """Misses per executed job."""
        admitted = self.n_admitted
        return self.miss_count / admitted if admitted else 0.0

    @property
    def boost_count(self) -> int:
        return sum(1 for o in self.outcomes if o.boosted)

    @property
    def switch_count(self) -> int:
        """Jobs that paid a DVFS switch (charged schemes only)."""
        return sum(1 for o in self.outcomes if o.t_switch > 0.0)

    @property
    def total_energy(self) -> float:
        return sum(o.energy for o in self.outcomes)

    def normalized_energy(self, baseline: "StreamResult") -> float:
        """Energy as a fraction of a baseline run (same jobs)."""
        if baseline.n_offered != self.n_offered:
            raise ValueError("baseline ran a different job count")
        base = baseline.total_energy
        if base <= 0:
            raise ValueError("baseline energy must be positive")
        return self.total_energy / base

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
        #: Committed block-planned runs as ``(first_index, n_jobs)``
        #: pairs — written only by block-planned serving, carried by
        #: the :class:`StreamResult` the checkers audit.
        self.epoch_log: List[Tuple[int, int]] = []
        #: The memo of :meth:`charge`, emptied by :meth:`result`.
        self._charges: dict = {}
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
            sjob.index, SHED, sjob.record, sjob.arrival, sjob.arrival))
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

    def predict_jobs(self, sjobs: Sequence[StreamJob]
                     ) -> List[Tuple[Optional[JobRecord], float]]:
        """The prediction pass: one ``(effective record | None,
        predict_s)`` entry per job, ``None`` meaning fall back.

        The predictor runs once per job, and each entry's
        ``predict_s`` is that call's wall time.  A call that raises, a
        result failing :func:`valid_prediction`, and a prediction
        whose ``predict_s`` overran ``prediction_budget`` all fall
        back.
        """
        uses_slice = self.controller.uses_slice
        predictor = self.predictor
        if not uses_slice or predictor is None:
            # Nothing to run: a sliceless scheme plans on the record,
            # a slice scheme without a predictor falls back.
            entries = []
            for sjob in sjobs:
                t0 = time.perf_counter()
                record = None if uses_slice else sjob.record
                entries.append((record, time.perf_counter() - t0))
            return entries
        entries = []
        for sjob in sjobs:
            t0 = time.perf_counter()
            try:
                predicted, slice_cycles = predictor.predict(sjob)
            except (ValueError, RuntimeError):
                record = None
            else:
                record = _effective(sjob, predicted, slice_cycles)
            entries.append((record, time.perf_counter() - t0))
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.predict_runs", len(sjobs))
        budget = self.config.prediction_budget
        if budget is not None:
            entries = [(None if predict_s > budget else record,
                        predict_s) for record, predict_s in entries]
        return entries

    def charge(self, record: JobRecord, point, t_slice: float,
               t_switch: float) -> tuple:
        """``charge_job`` on this stream's models, memoized on exactly
        its per-job inputs, for both serving paths: ``(t_exec, energy,
        activity, point)``, holding what the key names by ``id``."""
        key = (id(record.activity), record.actual_cycles,
               record.slice_cycles, id(point), t_slice, t_switch)
        hit = self._charges.get(key)
        if hit is None:
            hit = self._charges[key] = charge_job(
                record, point, t_slice, t_switch, self.energy_model,
                self.slice_energy_model, self.levels.nominal,
                self.controller.uses_slice,
                f"stream {self.name}") + (record.activity, point)
        return hit

    def _execute(self, sjob: StreamJob, record: Optional[JobRecord],
                 predict_s: float, batch_size: int) -> StreamOutcome:
        """Advance the virtual clock through one admitted job.

        Its ``decision_s`` is ``predict_s`` plus the wall time of
        selecting its level.
        """
        controller = self.controller
        release = sjob.arrival
        start = max(self.now, release)
        budget = release + self.config.deadline - start
        fallback = record is None
        t0 = time.perf_counter()
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
        decision_s = predict_s + (time.perf_counter() - t0)

        switch_needed = (point != self._previous
                         and controller.charge_overheads)
        t_switch = self.config.t_switch if switch_needed else 0.0
        # A fallback job's t_slice is 0.0, so it pays no slice energy.
        t_exec, energy, _, _ = self.charge(record, point, t_slice,
                                           t_switch)
        finish = start + t_slice + t_switch + t_exec
        missed = deadline_missed(finish, release, self.config.deadline)

        self.now = finish
        self._previous = point
        self._finishes.append(finish)
        self._in_flight += 1
        controller.observe(record)

        outcome = StreamOutcome(
            sjob.index, FALLBACK if fallback else COMPLETED, record,
            release, release, start, t_slice, t_switch, t_exec, energy,
            missed, point.voltage, point.frequency, point.is_boost,
            decision_s, batch_size)
        self.outcomes.append(outcome)
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.fallback" if fallback
                                 else "serve.completed")
            self.record_executed(observer, outcome)
        return outcome

    def record_executed(self, observer, o: StreamOutcome) -> None:
        """Telemetry of one executed job: its histograms, windowed
        samples and ``sjob`` event.  Both serving paths record every
        executed job here."""
        metrics = observer.metrics
        finish = o.finish
        decision_ms = o.decision_s * 1e3
        slack = (o.release + self.config.deadline) - finish
        metrics.observe("serve.decision_ms", decision_ms)
        metrics.observe("serve.batch_size", o.batch_size)
        metrics.observe("serve.slack_ms", slack * 1e3)
        # Windowed signals keyed on the virtual finish instant: 0/1
        # indicators make each window's mean a rate, so the SLO tracker
        # and the report dashboard read rates and energy-per-job
        # straight off the windows.
        ts = observer.timeseries
        ts.observe("serve.miss", finish, 1.0 if o.missed else 0.0)
        ts.observe("serve.fallback", finish,
                   1.0 if o.status == FALLBACK else 0.0)
        ts.observe("serve.energy_per_job", finish, o.energy)
        ts.observe("serve.decision_ms", finish, decision_ms)
        record = o.job
        observer.emit(
            "sjob", stream=self.name, index=o.index, status=o.status,
            arrival=o.arrival, release=o.release, start=o.start,
            t_slice=o.t_slice, t_switch=o.t_switch, t_exec=o.t_exec,
            energy=o.energy, missed=o.missed, slack=slack,
            predicted_cycles=record.predicted_cycles,
            actual_cycles=record.actual_cycles, voltage=o.voltage,
            frequency=o.frequency, boosted=o.boosted,
            decision_ms=decision_ms, batch_size=o.batch_size)

    def run_batch(self) -> List[StreamOutcome]:
        """Pop and execute one micro-batch from the admission queue.

        Predictions for the whole batch run first, then each job
        advances the virtual clock in FIFO order.  Returns the executed outcomes (empty = queue empty).
        """
        batch: List[StreamJob] = []
        while self._queue and len(batch) < self.config.batch_max:
            batch.append(self._queue.popleft())
        if not batch:
            return []
        planned = self.predict_jobs(batch)
        executed = [
            self._execute(sjob, record, predict_s, len(batch))
            for sjob, (record, predict_s) in zip(batch, planned)
        ]
        observer = get_observer()
        if (observer is not None and observer.slo is not None
                and self.slo_live):
            # Judge only windows strictly before the clock: the
            # current window may still receive samples.
            observer.slo.evaluate(observer.timeseries, upto_t=self.now)
        return executed

    def run_due(self, t: float) -> None:
        """Execute every queued job that would have *started* by ``t``
        on the virtual clock."""
        while self._queue and max(self.now, self._queue[0].arrival) <= t:
            self.run_batch()

    def offer(self, sjob: StreamJob) -> None:
        """Virtual-time entry point: run due work, then admit.

        Before an arrival at ``a`` is admitted, :meth:`run_due` runs
        every queued job that would have started by ``a``, so the
        queue holds exactly the jobs a wall-clock server would still
        have waiting, and micro-batches form naturally under overload
        (``now`` ahead of arrivals).
        """
        self.run_due(sjob.arrival)
        self.admit(sjob)

    def drain(self) -> None:
        """Execute everything still queued (end of stream)."""
        while self._queue:
            self.run_batch()

    # -- results -------------------------------------------------------

    def result(self, wall_s: float = 0.0) -> StreamResult:
        """Freeze the stream's accounting into a ``StreamResult``."""
        # Every serve call ends here; a served stream may be kept for
        # its accounting, where the memo would only hold memory.
        self._charges.clear()
        outcomes = sorted(self.outcomes, key=lambda o: o.index)
        return StreamResult(
            stream=self.name, scheme=self.controller.name,
            deadline=self.config.deadline, outcomes=outcomes,
            n_offered=self.n_offered, wall_s=wall_s,
            epoch_log=self.epoch_log,
        )


def _check_result(stream: AcceleratorStream,
                  result: StreamResult) -> None:
    """Strict-mode hook: replay the stream through the checker."""
    strict = stream.config.strict
    if strict is None:
        strict = strict_checks_enabled()
    if not strict:
        return
    # Imported lazily: repro.check imports this module's result types.
    from ..check import InvariantError, check_stream
    violations = check_stream(
        result,
        energy_model=stream.energy_model,
        slice_energy_model=stream.slice_energy_model,
        levels=stream.levels,
        t_switch=stream.config.t_switch,
        uses_slice=stream.controller.uses_slice,
        charge_overheads=stream.controller.charge_overheads,
    )
    if violations:
        raise InvariantError(violations)


def _emit_stream_summary(stream: AcceleratorStream,
                         result: StreamResult) -> None:
    observer = get_observer()
    if observer is None:
        return
    observer.emit(
        "stream",
        stream=result.stream, scheme=result.scheme,
        plans_on_prediction=stream.controller.plans_on_prediction,
        n_offered=result.n_offered, n_completed=result.n_completed,
        n_fallback=result.n_fallback, n_shed=result.n_shed,
        misses=result.miss_count, energy=result.total_energy,
        makespan=result.makespan, wall_s=result.wall_s,
    )


def _serve_virtual(stream: AcceleratorStream,
                   jobs: Sequence[StreamJob]) -> StreamResult:
    """Drive one stream on the virtual clock, as fast as possible.

    The block-planning loop
    (:func:`~repro.serve.vector.drive_stream_vectorized`) commits
    uncoupled runs from a plan and runs the scalar ``offer``/``drain``
    machine everywhere else.  Realtime mode runs the scalar machine
    only: a plan would require arrivals that have not happened yet on
    the wall clock.

    Deliberately synchronous: virtual serving never awaits, and
    ``asyncio.run`` is far from free here — installing its SIGINT
    handler reprs the pending main task, which stringifies the whole
    queued job list (numpy feature arrays included) twice per run.
    """
    from .vector import drive_stream_vectorized  # imports this module

    t0 = time.perf_counter()
    drive_stream_vectorized(stream, jobs)
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
    import asyncio
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
    import asyncio
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
            import asyncio
            results = asyncio.run(_serve_all(streams))
        else:
            results = [_serve_virtual(stream, jobs)
                       for stream, jobs in streams]
    for (stream, _), result in zip(streams, results):
        _emit_stream_summary(stream, result)
        _check_result(stream, result)
    if observer is not None and observer.slo is not None:
        observer.slo.finalize(observer.timeseries)
    return results


def serve_stream(stream: AcceleratorStream,
                 jobs: Sequence[StreamJob],
                 realtime: bool = False) -> StreamResult:
    """Serve a single stream (convenience wrapper)."""
    return serve_streams([(stream, jobs)], realtime=realtime)[0]

"""Fleet dispatcher: one mixed stream over a pool of accelerators.

The single-stream runtime (:mod:`repro.serve.server`) is one
controller state machine over one accelerator.  A production fleet is
a *dispatcher tier* above that: one mixed arrival stream (every
benchmark interleaved, tenant-tagged) routed across a pool of
:class:`~repro.serve.server.AcceleratorStream` instances, with the
admission decisions a fleet needs — per-tenant rate limits, a global
depth bound, deadline-infeasibility shedding — made *before* a job
ever reaches an instance queue.

The dispatcher routes on its own **ledger**: a projected virtual
clock per instance, advanced by service-time *estimates*: each job's
predicted cycles at the level the instance's own controller plans for
it (:meth:`FleetDispatcher._project`, the paper's Sec. 3.6).  One heap
holds the pool's projected finishes; each admitted arrival retires it
up to its own instant, so every backlog is an in-flight count.  Routing is
therefore a pure function of the arrival sequence and the predictions
— independent of shard execution — so the per-instance sub-streams
execute in parallel worker processes via :func:`repro.parallel.pmap`
and a ``workers=4`` run is bit-identical to the serial reference.
Ilager et al.'s data-driven scaling is the motivation for routing on
predicted cycles rather than queue length alone; Lumos frames the
pool itself (heterogeneous accelerators under shared budgets).

Conservation is checked fleet-wide by
:func:`repro.check.check_fleet`: every offered job ends in exactly
one of dispatcher shed / shard completed / shard fallback / shard
shed, fleet indices partition exactly, and the same identity holds
per tenant.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..dvfs import Controller, Plan
from ..dvfs.energy import EnergyModel, JobActivity
from ..obs import get_observer, span
from ..parallel import pmap, resolve_jobs
from ..runtime.jobs import JobRecord, strict_checks_enabled
from ..units import deadline_missed
from .server import (
    AcceleratorStream,
    ServeConfig,
    StreamResult,
    _check_result,
    _emit_stream_summary,
    _serve_virtual,
    valid_prediction,
)
from .stream import FleetJob

#: The pluggable routing policies, in documentation order.
ROUND_ROBIN = "round_robin"
LEAST_LOADED = "least_loaded"
ENERGY_AWARE = "energy_aware"
DEADLINE = "deadline"
POLICIES = (ROUND_ROBIN, LEAST_LOADED, ENERGY_AWARE, DEADLINE)

#: Dispatcher-side shed reasons.  Shard-side sheds (instance queue
#: overflow) are accounted by the shard's own stream, not here.
SHED_ADMISSION = "admission"
SHED_RATE_LIMIT = "rate_limit"
SHED_DEADLINE = "deadline"
SHED_REASONS = (SHED_ADMISSION, SHED_RATE_LIMIT, SHED_DEADLINE)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's rate-limit contract.

    ``rate <= 0`` means unlimited (no token bucket); otherwise the
    tenant may sustain ``rate`` jobs/s with bursts of up to ``burst``
    jobs, enforced on the *virtual* arrival clock so limits are
    deterministic in the arrival sequence.
    """

    name: str
    rate: float = 0.0
    burst: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name cannot be empty")
        # A NaN rate fails ``rate > 0`` and silently lifts the limit;
        # a NaN burst leaves the bucket empty and sheds everything.
        for key, value in (("rate", self.rate), ("burst", self.burst)):
            if not math.isfinite(value):
                raise ValueError(
                    f"tenant {self.name!r}: {key} must be finite, "
                    f"got {value!r}")
        if self.rate > 0.0 and self.burst < 1.0:
            raise ValueError("burst must be >= 1 for a rate-limited "
                             "tenant")

    @classmethod
    def parse(cls, text: str) -> "TenantSpec":
        """Parse ``name[:rate=R][:burst=B]`` (CLI ``--tenants`` atom)."""
        parts = text.strip().split(":")
        if not parts or not parts[0]:
            raise ValueError(f"bad tenant spec {text!r}")
        name = parts[0]
        rate = 0.0
        burst = 1.0
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"bad tenant spec field {part!r} "
                                 f"in {text!r}")
            if key == "rate":
                rate = float(value)
            elif key == "burst":
                burst = float(value)
            else:
                raise ValueError(f"unknown tenant spec key {key!r} "
                                 f"in {text!r}")
        return cls(name=name, rate=rate, burst=burst)


def parse_tenants(spec: str) -> List[TenantSpec]:
    """Parse a comma-separated ``--tenants`` value into specs."""
    tenants = [TenantSpec.parse(atom)
               for atom in spec.split(",") if atom.strip()]
    if not tenants:
        raise ValueError("empty tenant spec")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {spec!r}")
    return tenants


class TokenBucket:
    """A token bucket on the virtual clock (deterministic limits)."""

    def __init__(self, rate: float, burst: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.t = 0.0

    def allow(self, t: float) -> bool:
        """Refill to instant ``t`` and try to take one token."""
        if self.rate <= 0.0:
            return True
        if t > self.t:
            self.tokens = min(self.burst,
                              self.tokens + (t - self.t) * self.rate)
            self.t = t
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class FleetConfig:
    """Dispatcher-level policy knobs (per-instance knobs stay in each
    shard's :class:`~repro.serve.server.ServeConfig`)."""

    policy: str = LEAST_LOADED
    #: Global admission bound: total projected backlog across the pool
    #: beyond which arrivals shed at the dispatcher.
    global_depth: int = 512
    #: Elastic scaling against per-benchmark mean-backlog watermarks.
    elastic: bool = False
    scale_up_backlog: float = 8.0
    scale_down_backlog: float = 1.0
    min_active: int = 1
    strict: Optional[bool] = None  # None = follow REPRO_CHECK

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; pick one of "
                f"{', '.join(POLICIES)}")
        # A NaN depth never sheds, a NaN min_active activates no
        # instance, and a NaN watermark silently turns its direction of
        # elastic scaling off; each fails by name.
        for key in ("global_depth", "min_active"):
            value = getattr(self, key)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(
                    f"{key} must be an integer >= 1, got {value!r}")
        for key in ("scale_up_backlog", "scale_down_backlog"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, "
                                 f"got {getattr(self, key)!r}")
        if self.scale_down_backlog >= self.scale_up_backlog:
            raise ValueError("scale_down_backlog must sit below "
                             "scale_up_backlog")


def usable_cores() -> int:
    """CPU cores actually schedulable by this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux hosts
        return os.cpu_count() or 1


@dataclass
class ShardSpec:
    """Everything needed to build one pool instance's stream.

    The spec — not the stream — crosses the process boundary, so every
    field must be picklable and each spec must own its *own*
    controller instance (a shared controller would leak reactive state
    across shards on the serial path).  ``predictor`` follows the same
    rule: :class:`~repro.serve.server.RecordPredictor` is trivially
    picklable; a live :class:`~repro.serve.server.SlicePredictor` is
    not and belongs to single-process serving.
    """

    name: str
    benchmark: str
    controller: Controller
    energy_model: EnergyModel
    slice_energy_model: Optional[EnergyModel] = None
    predictor: object = None
    config: ServeConfig = field(default_factory=ServeConfig)

    def make_stream(self) -> AcceleratorStream:
        """Build this instance's stream (fresh admission state)."""
        return AcceleratorStream(
            self.name, self.controller, self.energy_model,
            slice_energy_model=self.slice_energy_model,
            predictor=self.predictor, config=self.config)


class FleetShed(NamedTuple):
    """One job shed at the dispatcher (never reached an instance)."""

    index: int
    benchmark: str
    tenant: str
    arrival: float
    reason: str


class RoutingDecision(NamedTuple):
    """One dispatcher decision, for audits and property tests.

    ``candidates``/``backlogs`` snapshot the eligible instances and
    their projected backlogs at decision time; ``chosen`` is the index
    into the *pool* (None when the job shed, with ``reason`` set).
    A named tuple, as :class:`FleetShed` is: every arrival logs one.
    """

    index: int
    benchmark: str
    tenant: str
    arrival: float
    candidates: Tuple[int, ...]
    backlogs: Tuple[int, ...]
    chosen: Optional[int]
    reason: Optional[str] = None


@dataclass
class FleetResult:
    """Everything the fleet did: dispatcher decisions plus shard runs."""

    policy: str
    specs: List[ShardSpec]
    shards: List[StreamResult]          # aligned with ``specs``
    sheds: List[FleetShed]              # dispatcher-side only
    assignments: Dict[int, int]         # fleet index -> pool index
    tenants: Dict[int, str]             # fleet index -> tenant name
    benchmarks: Dict[int, str]          # fleet index -> benchmark
    n_offered: int
    wall_s: float = 0.0

    @property
    def n_completed(self) -> int:
        return sum(r.n_completed for r in self.shards)

    @property
    def n_fallback(self) -> int:
        return sum(r.n_fallback for r in self.shards)

    @property
    def n_shed(self) -> int:
        """All sheds: dispatcher-side plus instance-queue overflow."""
        return len(self.sheds) + sum(r.n_shed for r in self.shards)

    @property
    def total_energy(self) -> float:
        return sum(r.total_energy for r in self.shards)

    def tenant_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant terminal-state counts (the conservation ledger).

        Each tenant's ``offered`` equals its ``completed + fallback +
        shed`` — the identity :func:`repro.check.check_fleet` proves.
        """
        summary: Dict[str, Dict[str, int]] = {}

        def row(tenant: str) -> Dict[str, int]:
            return summary.setdefault(tenant, {
                "offered": 0, "completed": 0, "fallback": 0, "shed": 0})

        for shed in self.sheds:
            entry = row(shed.tenant)
            entry["offered"] += 1
            entry["shed"] += 1
        for result in self.shards:
            for outcome in result.outcomes:
                entry = row(self.tenants.get(outcome.index, "?"))
                entry["offered"] += 1
                entry[outcome.status] += 1
        return summary

    def describe(self) -> str:
        """One human line, for CLI footers."""
        shard_shed = sum(r.n_shed for r in self.shards)
        return (f"fleet[{self.policy}] x{len(self.specs)}: "
                f"{self.n_offered} offered, "
                f"{self.n_completed} completed, "
                f"{self.n_fallback} fallback, "
                f"{len(self.sheds)} shed@dispatcher, "
                f"{shard_shed} shed@instance; "
                f"{len(self.tenant_summary())} tenants")


class _Ledger:
    """One instance's projected virtual clock at the dispatcher.

    ``clock`` is the projected finish of the last job routed there and
    ``in_flight`` counts its jobs unfinished at the last admitted
    arrival; the finishes sit in the dispatcher's pool-wide heap.  Both
    advance on *estimates*, so the dispatcher never waits for execution.
    """

    __slots__ = ("clock", "in_flight", "active")

    def __init__(self, active: bool = True):
        self.clock = 0.0
        self.in_flight = 0
        self.active = active


class FleetDispatcher:
    """Route a mixed stream across the pool via a pluggable policy.

    Admission runs in contract order — tenant rate limit, global
    depth, then the policy (which for ``deadline`` can itself shed) —
    and every decision lands in :attr:`routing_log`.  Instances are
    eligible for a job only when they serve its benchmark (the pool is
    heterogeneous) and are currently active (elastic scaling).

    Each admitted arrival does constant work: it retires the pool-wide
    heap of projected finishes up to its instant, reads every backlog
    as a count, and projects its service only where its policy looks.
    """

    def __init__(self, specs: Sequence[ShardSpec],
                 config: FleetConfig = FleetConfig(),
                 tenants: Sequence[TenantSpec] = (TenantSpec("default"),)):
        if not specs:
            raise ValueError("a fleet needs at least one instance")
        self.specs = list(specs)
        self.config = config
        self.tenants = {t.name: t for t in tenants}
        if len(self.tenants) != len(tenants):
            raise ValueError("duplicate tenant names")
        self._buckets = {t.name: TokenBucket(t.rate, t.burst)
                         for t in tenants}
        #: Pool indices per benchmark, in spec order: the elastic
        #: activation order and the round-robin rotation order.
        self._by_benchmark: Dict[str, List[int]] = {}
        for i, spec in enumerate(self.specs):
            self._by_benchmark.setdefault(spec.benchmark, []).append(i)
        self._ledgers = [
            _Ledger(active=self._initially_active(i))
            for i in range(len(self.specs))]
        #: Each benchmark's active instances, rebuilt on every flip;
        #: decisions, sheds and the log share the tuple.
        self._candidates = {
            b: tuple(i for i in peers if self._ledgers[i].active)
            for b, peers in self._by_benchmark.items()}
        #: ``(finish, pool index)`` of every routed job not yet retired,
        #: and their count (the pool's total backlog).
        self._finishes: List[Tuple[float, int]] = []
        self._in_flight = 0
        self._projection = [self._projector(spec) for spec in self.specs]
        self._rr: Dict[str, int] = {b: 0 for b in self._by_benchmark}
        self.routing_log: List[RoutingDecision] = []
        self.sheds: List[FleetShed] = []
        self.assignments: Dict[int, int] = {}
        self.routed: List[List[FleetJob]] = [[] for _ in self.specs]
        self.n_offered = 0

    def _initially_active(self, pool_index: int) -> bool:
        if not self.config.elastic:
            return True
        peers = self._by_benchmark[self.specs[pool_index].benchmark]
        return peers.index(pool_index) < self.config.min_active

    # -- elastic scaling ----------------------------------------------

    def n_active(self, benchmark: Optional[str] = None) -> int:
        """Active instance count (optionally one benchmark's)."""
        indices = (self._by_benchmark.get(benchmark, [])
                   if benchmark is not None
                   else range(len(self.specs)))
        return sum(1 for i in indices if self._ledgers[i].active)

    def _rescale(self, benchmark: str) -> None:
        """Move one watermark step for ``benchmark``'s sub-pool."""
        peers = self._by_benchmark[benchmark]
        active = self._candidates[benchmark]
        ledgers = self._ledgers
        mean = (sum(ledgers[i].in_flight for i in active) / len(active)
                if active else 0.0)
        flip = None
        if (mean > self.config.scale_up_backlog
                and len(active) < len(peers)):
            flip = next(i for i in peers if not ledgers[i].active)
            move = "scale_up"
        elif (mean < self.config.scale_down_backlog
                and len(active) > self.config.min_active):
            # Retire from the back, and only an idle instance — an
            # empty ledger means nothing routed there needs moving, so
            # conservation is untouched.
            flip = next((i for i in reversed(active)
                         if ledgers[i].in_flight == 0), None)
            move = "scale_down"
        if flip is not None:
            ledgers[flip].active = not ledgers[flip].active
            self._candidates[benchmark] = tuple(
                i for i in peers if ledgers[i].active)
        observer = get_observer()
        if observer is not None:
            if flip is not None:
                observer.metrics.inc(f"serve.fleet.{move}")
            observer.metrics.set_gauge("serve.fleet.active",
                                       self.n_active())

    # -- routing -------------------------------------------------------

    @staticmethod
    def _projector(spec: ShardSpec) -> tuple:
        """What :meth:`_project` reads of one instance, bound once:
        its plan, deadline, switch allowance and fastest point."""
        c = spec.controller
        if c.vectorizable:
            plan = c.plan
        else:
            nominal = Plan(point=c.levels.nominal)

            def plan(job, budget):
                return nominal
        return (plan, spec.config.deadline,
                spec.config.t_switch if c.charge_overheads else 0.0,
                c.levels.fastest())

    def _project(self, pool_index: int, arrival: float,
                 record: JobRecord) -> tuple:
        """Project one job's service on one instance:
        ``(service_s, feasible, point, cycles)``.

        The job is planned as its instance will plan it, on its
        *predicted* cycles, with the switch allowance charged as if it
        switched.  A ``vectorizable`` controller plans through its own
        :meth:`~repro.dvfs.Controller.plan`, a pure function of job
        and budget.  A reactive one (pid, history, governor) projects
        at nominal: that is its plan before it has observed a job, and
        the dispatcher never feeds it one.  A job with no valid
        prediction (see :func:`~repro.serve.server.valid_prediction`:
        a slice scheme's shard falls back on it) projects a full
        deadline at the fastest point: the conservative bound.
        ``feasible`` also holds the projected finish to the deadline by
        :func:`~repro.units.deadline_missed`'s rule, because a nominal
        plan reports feasible whatever its budget.
        """
        plan, deadline, t_switch, fastest = self._projection[pool_index]
        start = max(self._ledgers[pool_index].clock, arrival)
        budget = arrival + deadline - start
        predicted = record.predicted_cycles
        if not valid_prediction(predicted, record.slice_cycles):
            return deadline, budget >= deadline, fastest, 0.0
        cycles = float(predicted)
        point, t_slice, feasible, _ = plan(record, budget)
        service_s = t_slice + t_switch + cycles / point.frequency
        return (service_s,
                feasible
                and not deadline_missed(start + service_s, arrival, deadline),
                point, cycles)

    def _pick(self, candidates: Tuple[int, ...], backlogs: Tuple[int, ...],
              benchmark: str, arrival: float, record: JobRecord
              ) -> Tuple[Optional[int], float]:
        """Apply the routing policy: ``(pool index, service_s)``, where
        a ``None`` index means the ``deadline`` policy sheds."""
        policy = self.config.policy
        if policy == LEAST_LOADED:
            chosen = min(zip(backlogs, candidates))[1]
        elif policy == ROUND_ROBIN:
            turn = self._rr[benchmark]
            self._rr[benchmark] = turn + 1
            chosen = candidates[turn % len(candidates)]
        elif policy == ENERGY_AWARE:
            scored = []
            for backlog, i in zip(backlogs, candidates):
                service_s, _, point, cycles = self._project(i, arrival,
                                                            record)
                energy = self.specs[i].energy_model.job_energy(
                    JobActivity(cycles=cycles), point, service_s)
                scored.append((energy, backlog, i, service_s))
            _, _, chosen, service_s = min(scored)
            return chosen, service_s
        else:
            # DEADLINE: only instances projected to finish in time are
            # eligible; none feasible -> shed here rather than burn an
            # instance on a job already lost.
            best, best_finish, best_service = None, None, 0.0
            for i in candidates:
                service_s, feasible, _, _ = self._project(i, arrival, record)
                finish = max(self._ledgers[i].clock, arrival) + service_s
                if feasible and (best_finish is None or finish < best_finish):
                    best, best_finish, best_service = i, finish, service_s
            return best, best_service
        return chosen, self._project(chosen, arrival, record)[0]

    def _shed(self, fleet_job: FleetJob, reason: str,
              candidates: tuple = (), backlogs: tuple = ()) -> None:
        job = fleet_job.job
        benchmark, tenant = fleet_job.benchmark, fleet_job.tenant
        self.sheds.append(FleetShed(job.index, benchmark, tenant,
                                    job.arrival, reason))
        self.routing_log.append(RoutingDecision(
            job.index, benchmark, tenant, job.arrival, candidates,
            backlogs, None, reason))
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc(f"serve.fleet.shed.{reason}")
            observer.timeseries.observe("serve.fleet.shed",
                                        job.arrival, 1.0)

    def route(self, fleet_job: FleetJob) -> Optional[int]:
        """Route (or shed) one arriving job; returns the pool index."""
        self.n_offered += 1
        job = fleet_job.job
        benchmark, tenant = fleet_job.benchmark, fleet_job.tenant
        bucket = self._buckets.get(tenant)
        if bucket is None:
            raise ValueError(
                f"job {job.index} names unknown tenant {tenant!r}")
        if benchmark not in self._candidates:
            raise ValueError(
                f"job {job.index} needs benchmark {benchmark!r} "
                "but no pool instance serves it")
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.fleet.offered")
        arrival = job.arrival
        if not bucket.allow(arrival):
            self._shed(fleet_job, SHED_RATE_LIMIT)
            return None
        # Retire every projected finish at or before this arrival.
        finishes = self._finishes
        ledgers = self._ledgers
        while finishes and finishes[0][0] <= arrival:
            ledgers[heappop(finishes)[1]].in_flight -= 1
            self._in_flight -= 1
        if self.config.elastic:
            self._rescale(benchmark)
        if observer is not None:
            observer.timeseries.observe("serve.fleet.backlog",
                                        arrival, self._in_flight)
        if self._in_flight >= self.config.global_depth:
            self._shed(fleet_job, SHED_ADMISSION)
            return None
        candidates = self._candidates[benchmark]
        backlogs = tuple([ledgers[i].in_flight for i in candidates])
        chosen, service_s = self._pick(candidates, backlogs, benchmark,
                                       arrival, job.record)
        if chosen is None:
            self._shed(fleet_job, SHED_DEADLINE, candidates, backlogs)
            return None
        ledger = ledgers[chosen]
        ledger.clock = finish = max(ledger.clock, arrival) + service_s
        ledger.in_flight += 1
        self._in_flight += 1
        heappush(finishes, (finish, chosen))
        self.assignments[job.index] = chosen
        self.routed[chosen].append(fleet_job)
        self.routing_log.append(RoutingDecision(
            job.index, benchmark, tenant, arrival, candidates, backlogs,
            chosen))
        if observer is not None:
            observer.metrics.inc("serve.fleet.routed")
            observer.timeseries.observe("serve.fleet.shed", arrival, 0.0)
        return chosen

    def dispatch(self, jobs: Sequence[FleetJob]) -> List[List[FleetJob]]:
        """Route a whole (arrival-sorted) stream job by job with
        :meth:`route`; returns per-instance sub-streams aligned with
        ``specs``."""
        arrivals = [job.job.arrival for job in jobs]
        if arrivals != sorted(arrivals):
            raise ValueError("fleet jobs must be sorted by arrival")
        for job in jobs:
            self.route(job)
        return self.routed


def virtual_outcomes(result: StreamResult) -> List:
    """A shard's outcomes with measured wall-clock fields zeroed.

    Everything on the virtual clock — timeline, energy, levels,
    misses, terminal states — is deterministic, so a ``workers=4`` run
    must reproduce the serial reference *bit-identically* on these.
    ``decision_s`` alone is genuinely measured (host wall time) and is
    excluded, and the record's ``features`` vector (a numpy array,
    which poisons dataclass ``==``) is dropped; this is the canonical
    form the equivalence tests and the throughput benchmark compare.
    """
    return [o._replace(decision_s=0.0,
                       job=replace(o.job, features=None))
            for o in result.outcomes]


def _run_shard(task: Tuple[ShardSpec, List[FleetJob], bool]
               ) -> StreamResult:
    """Worker body: serve one instance's routed sub-stream on the
    virtual clock, exactly as a lone stream is served.

    Must stay a module-level function (pmap pickles it).  SLO
    judgement stays off inside shards — windows are only complete
    fleet-wide, so :func:`serve_fleet` finalizes once at the end.  A
    strict fleet leaves the shard to :func:`repro.check.check_fleet`,
    which checks it once; otherwise the shard's own config decides.
    """
    spec, jobs, fleet_strict = task
    stream = spec.make_stream()
    stream.slo_live = False
    result = _serve_virtual(stream, [job.job for job in jobs])
    _emit_stream_summary(stream, result)
    if not fleet_strict:
        _check_result(stream, result)
    return result


def serve_fleet(specs: Sequence[ShardSpec],
                jobs: Sequence[FleetJob],
                config: FleetConfig = FleetConfig(),
                tenants: Sequence[TenantSpec] = (TenantSpec("default"),),
                workers: Optional[int] = None) -> FleetResult:
    """Serve one mixed stream across the pool.

    Routing runs first (dispatcher-side, deterministic); the
    per-instance sub-streams then execute across ``workers`` processes
    via :func:`~repro.parallel.pmap` — one task per instance, metric
    and time-series snapshots shipped back per chunk — or serially
    in-process when ``workers`` resolves to 1, with bit-identical
    outcomes either way.  Strict mode (``config.strict`` or
    ``REPRO_CHECK``) replays the result through
    :func:`repro.check.check_fleet`, which checks every shard once,
    planned runs included, and raises
    :class:`~repro.check.InvariantError` on any violation.
    """
    dispatcher = FleetDispatcher(specs, config=config, tenants=tenants)
    observer = get_observer()
    # Process fan-out only pays for itself when the host can actually
    # run the shards side by side; below two cores per shard the fork
    # + ship-back overhead makes `workers=N` *slower* than serial, so
    # degrade to the in-process path (bit-identical results).
    if (resolve_jobs(workers) > 1
            and usable_cores() < 2 * len(specs)):
        workers = 1
        if observer is not None:
            observer.metrics.inc("serve.fleet.serial_degrade")
    strict = config.strict
    if strict is None:
        strict = strict_checks_enabled()
    t0 = time.perf_counter()
    with span("serve.fleet", shards=len(specs), policy=config.policy,
              jobs=len(jobs)):
        routed = dispatcher.dispatch(jobs)
        tasks = [(spec, shard_jobs, strict)
                 for spec, shard_jobs in zip(dispatcher.specs, routed)]
        shard_results = pmap(_run_shard, tasks, jobs=workers,
                             label="serve.fleet")
    observer = get_observer()
    if observer is not None and observer.slo is not None:
        observer.slo.finalize(observer.timeseries)
    result = FleetResult(
        policy=config.policy,
        specs=dispatcher.specs,
        shards=shard_results,
        sheds=dispatcher.sheds,
        assignments=dispatcher.assignments,
        tenants={job.job.index: job.tenant for job in jobs},
        benchmarks={job.job.index: job.benchmark for job in jobs},
        n_offered=dispatcher.n_offered,
        wall_s=time.perf_counter() - t0,
    )
    if strict:
        from ..check import InvariantError, check_fleet
        violations = check_fleet(result)
        if violations:
            raise InvariantError(violations)
    return result

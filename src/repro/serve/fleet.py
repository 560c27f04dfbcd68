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
clock per instance, advanced by service-time *estimates* derived from
each job's predicted cycles through the same level-selection model the
controllers use (`select_level`, the paper's Sec. 3.6).  Routing is
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

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dvfs.controllers import Controller
from ..dvfs.dvfs_model import select_level, select_level_batch
from ..dvfs.energy import EnergyModel, JobActivity
from ..obs import get_observer, span
from ..parallel import pmap, resolve_jobs
from ..runtime.episode import strict_checks_enabled
from .server import (
    ENGINES,
    AcceleratorStream,
    ServeConfig,
    StreamResult,
    _check_result,
    _emit_stream_summary,
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
    engine: str = "auto"           # one of ENGINES

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; pick one of "
                f"{', '.join(POLICIES)}")
        if self.global_depth < 1:
            raise ValueError("global_depth must be >= 1")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")
        if self.scale_down_backlog >= self.scale_up_backlog:
            raise ValueError("scale_down_backlog must sit below "
                             "scale_up_backlog")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")


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


@dataclass(frozen=True)
class FleetShed:
    """One job shed at the dispatcher (never reached an instance)."""

    index: int
    benchmark: str
    tenant: str
    arrival: float
    reason: str


@dataclass(frozen=True)
class RoutingDecision:
    """One dispatcher decision, for audits and property tests.

    ``candidates``/``backlogs`` snapshot the eligible instances and
    their projected backlogs at decision time; ``chosen`` is the index
    into the *pool* (None when the job shed, with ``reason`` set).
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
    def n_dispatcher_shed(self) -> int:
        return len(self.sheds)

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


@dataclass(frozen=True)
class _Estimate:
    """Dispatcher-side service projection for one (job, instance)."""

    service_s: float
    energy: float
    feasible: bool


class _Ledger:
    """One instance's projected virtual clock at the dispatcher.

    Mirrors the instance's admission accounting — a deque of projected
    finishes with an incremental in-flight counter — but advances on
    *estimates*, so the dispatcher never has to wait for execution.
    """

    __slots__ = ("clock", "_finishes", "_in_flight", "active")

    def __init__(self, active: bool = True):
        self.clock = 0.0
        self._finishes: deque = deque()
        self._in_flight = 0
        self.active = active

    def backlog(self, arrival: float) -> int:
        while self._finishes and self._finishes[0] <= arrival:
            self._finishes.popleft()
            self._in_flight -= 1
        return self._in_flight

    def commit(self, arrival: float, service_s: float) -> float:
        start = max(self.clock, arrival)
        finish = start + service_s
        self.clock = finish
        self._finishes.append(finish)
        self._in_flight += 1
        return finish


class FleetDispatcher:
    """Route a mixed stream across the pool via a pluggable policy.

    Admission runs in contract order — tenant rate limit, global
    depth, then the policy (which for ``deadline`` can itself shed) —
    and every decision lands in :attr:`routing_log`.  Instances are
    eligible for a job only when they serve its benchmark (the pool is
    heterogeneous) and are currently active (elastic scaling).
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

    def _rescale(self, benchmark: str, arrival: float) -> None:
        """Move one watermark step for ``benchmark``'s sub-pool."""
        peers = self._by_benchmark[benchmark]
        active = [i for i in peers if self._ledgers[i].active]
        backlogs = [self._ledgers[i].backlog(arrival) for i in active]
        mean = sum(backlogs) / len(active) if active else 0.0
        observer = get_observer()
        if (mean > self.config.scale_up_backlog
                and len(active) < len(peers)):
            nxt = next(i for i in peers if not self._ledgers[i].active)
            self._ledgers[nxt].active = True
            if observer is not None:
                observer.metrics.inc("serve.fleet.scale_up")
        elif (mean < self.config.scale_down_backlog
                and len(active) > self.config.min_active):
            # Retire from the back, and only an idle instance — an
            # empty ledger means nothing routed there needs moving, so
            # conservation is untouched.
            for i in reversed(active):
                if self._ledgers[i].backlog(arrival) == 0:
                    self._ledgers[i].active = False
                    if observer is not None:
                        observer.metrics.inc("serve.fleet.scale_down")
                    break
        if observer is not None:
            observer.metrics.set_gauge("serve.fleet.active",
                                       self.n_active())

    # -- routing -------------------------------------------------------

    def _estimate(self, pool_index: int, job: FleetJob) -> _Estimate:
        """Project one job's service on one instance.

        The projection reruns the controllers' own level-selection
        model on the job's *predicted* cycles (margin/boost/overheads
        read off the instance's controller), so the ledger sees the
        service time the instance is about to plan — without touching
        controller state.  A job with no prediction projects a full
        deadline at the fastest point: the conservative bound.
        """
        spec = self.specs[pool_index]
        ledger = self._ledgers[pool_index]
        controller = spec.controller
        levels = controller.levels
        record = job.job.record
        deadline = spec.config.deadline
        start = max(ledger.clock, job.arrival)
        budget = job.arrival + deadline - start
        predicted = record.predicted_cycles
        if predicted is None:
            point = levels.fastest()
            exec_s = deadline
            feasible = budget >= deadline
        else:
            t_slice = 0.0
            if controller.uses_slice and controller.charge_overheads:
                t_slice = record.slice_cycles / levels.nominal.frequency
            t_switch = (spec.config.t_switch
                        if controller.charge_overheads else 0.0)
            decision = select_level(
                levels, float(predicted), budget,
                margin_fraction=getattr(controller, "margin", 0.0),
                t_slice=t_slice, t_switch=t_switch,
                allow_boost=getattr(controller, "boost", False),
            )
            point = decision.point
            exec_s = t_slice + t_switch + float(predicted) / point.frequency
            feasible = decision.feasible
        energy = spec.energy_model.job_energy(
            JobActivity(cycles=float(predicted if predicted is not None
                                     else 0.0)),
            point, exec_s)
        return _Estimate(service_s=exec_s, energy=energy,
                         feasible=feasible)

    def _pick(self, candidates: List[int],
              job: FleetJob) -> Tuple[Optional[int], Optional[str]]:
        """Apply the routing policy; ``(None, reason)`` means shed."""
        policy = self.config.policy
        if policy == ROUND_ROBIN:
            turn = self._rr[job.benchmark]
            self._rr[job.benchmark] = turn + 1
            return candidates[turn % len(candidates)], None
        if policy == LEAST_LOADED:
            return min(candidates,
                       key=lambda i: (self._ledgers[i].backlog(
                           job.arrival), i)), None
        if policy == ENERGY_AWARE:
            return min(candidates,
                       key=lambda i: (self._estimate(i, job).energy,
                                      self._ledgers[i].backlog(
                                          job.arrival), i)), None
        # DEADLINE: only instances projected to finish in time are
        # eligible; none feasible -> shed here rather than burn an
        # instance on a job already lost.
        best = None
        best_finish = None
        for i in candidates:
            estimate = self._estimate(i, job)
            if not estimate.feasible:
                continue
            finish = (max(self._ledgers[i].clock, job.arrival)
                      + estimate.service_s)
            if best_finish is None or finish < best_finish:
                best, best_finish = i, finish
        if best is None:
            return None, SHED_DEADLINE
        return best, None

    def _shed(self, job: FleetJob, reason: str,
              candidates: Tuple[int, ...] = (),
              backlogs: Tuple[int, ...] = ()) -> None:
        self.sheds.append(FleetShed(
            index=job.index, benchmark=job.benchmark,
            tenant=job.tenant, arrival=job.arrival, reason=reason))
        self.routing_log.append(RoutingDecision(
            index=job.index, benchmark=job.benchmark,
            tenant=job.tenant, arrival=job.arrival,
            candidates=candidates, backlogs=backlogs,
            chosen=None, reason=reason))
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc(f"serve.fleet.shed.{reason}")
            observer.timeseries.observe("serve.fleet.shed",
                                        job.arrival, 1.0)

    def route(self, job: FleetJob) -> Optional[int]:
        """Route (or shed) one arriving job; returns the pool index."""
        self.n_offered += 1
        if job.tenant not in self._buckets:
            raise ValueError(
                f"job {job.index} names unknown tenant {job.tenant!r}")
        if job.benchmark not in self._by_benchmark:
            raise ValueError(
                f"job {job.index} needs benchmark {job.benchmark!r} "
                "but no pool instance serves it")
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.fleet.offered")
        if not self._buckets[job.tenant].allow(job.arrival):
            self._shed(job, SHED_RATE_LIMIT)
            return None
        if self.config.elastic:
            self._rescale(job.benchmark, job.arrival)
        total_backlog = sum(ledger.backlog(job.arrival)
                            for ledger in self._ledgers)
        if observer is not None:
            observer.timeseries.observe("serve.fleet.backlog",
                                        job.arrival, total_backlog)
        if total_backlog >= self.config.global_depth:
            self._shed(job, SHED_ADMISSION)
            return None
        candidates = [i for i in self._by_benchmark[job.benchmark]
                      if self._ledgers[i].active]
        backlogs = tuple(self._ledgers[i].backlog(job.arrival)
                         for i in candidates)
        chosen, reason = self._pick(candidates, job)
        if chosen is None:
            self._shed(job, reason, tuple(candidates), backlogs)
            return None
        estimate = self._estimate(chosen, job)
        self._ledgers[chosen].commit(job.arrival, estimate.service_s)
        self.assignments[job.index] = chosen
        self.routed[chosen].append(job)
        self.routing_log.append(RoutingDecision(
            index=job.index, benchmark=job.benchmark,
            tenant=job.tenant, arrival=job.arrival,
            candidates=tuple(candidates), backlogs=backlogs,
            chosen=chosen))
        if observer is not None:
            observer.metrics.inc("serve.fleet.routed")
            observer.timeseries.observe("serve.fleet.shed",
                                        job.arrival, 0.0)
        return chosen

    def dispatch(self, jobs: Sequence[FleetJob]) -> List[List[FleetJob]]:
        """Route a whole (arrival-sorted) stream; returns per-instance
        sub-streams aligned with ``specs``.

        Under the ``auto`` engine the dispatcher first
        tries one vectorized **routing epoch** (:meth:`_route_epoch`)
        over the whole stream; whatever prefix it can prove
        independent is committed in bulk and the scalar
        :meth:`route` loop finishes the rest from the reconstructed
        ledger state — bit-identical either way.
        """
        arrivals = [job.arrival for job in jobs]
        if arrivals != sorted(arrivals):
            raise ValueError("fleet jobs must be sorted by arrival")
        start = 0
        if self.config.engine != "scalar":
            start = self._route_epoch(jobs)
        for job in jobs[start:]:
            self.route(job)
        return self.routed

    # -- vectorized routing epoch -------------------------------------

    def _epoch_eligible(self, jobs: Sequence[FleetJob]) -> bool:
        """Can the whole decision plane be replayed as one epoch?

        Round-robin routing is a pure function of the arrival order —
        no decision reads a backlog — so the only remaining coupling
        is each ledger's own clock, which the epoch speculates idle
        and then verifies.  Every other policy, elastic scaling, any
        rate-limited tenant, or a pool big enough to trip the global
        depth even when idle-verified (one in-flight job per
        instance), keeps the scalar path.  A job naming an unknown
        tenant or benchmark also declines, so the scalar loop raises
        its diagnostic at exactly the right job.
        """
        if self.config.policy != ROUND_ROBIN or self.config.elastic:
            return False
        if len(self.specs) >= self.config.global_depth:
            return False
        if any(t.rate > 0.0 for t in self.tenants.values()):
            return False
        if self.n_offered or len(jobs) < 2:
            return False
        for job in jobs:
            if (job.tenant not in self._buckets
                    or job.benchmark not in self._by_benchmark):
                return False
        return True

    def _estimate_batch(self, pool_index: int,
                        sub_jobs: List[FleetJob],
                        arr: np.ndarray) -> np.ndarray:
        """Batched :meth:`_estimate` for one instance under the
        idle-ledger speculation (``start == arrival``), replicating
        the scalar arithmetic operation by operation."""
        spec = self.specs[pool_index]
        controller = spec.controller
        levels = controller.levels
        deadline = spec.config.deadline
        budgets = (arr + deadline) - arr
        predicted = [job.job.record.predicted_cycles
                     for job in sub_jobs]
        service = np.empty(len(sub_jobs))
        have = np.array([p is not None for p in predicted])
        if not have.all():
            # No prediction: a full deadline at the fastest point —
            # the scalar path's conservative bound.
            service[~have] = deadline
        if have.any():
            hp = np.flatnonzero(have)
            cycles = np.array([float(predicted[k]) for k in hp])
            if controller.uses_slice and controller.charge_overheads:
                t_slice = np.array(
                    [sub_jobs[k].job.record.slice_cycles for k in hp],
                    dtype=float) / levels.nominal.frequency
            else:
                t_slice = np.zeros(hp.size)
            t_switch = (spec.config.t_switch
                        if controller.charge_overheads else 0.0)
            decision = select_level_batch(
                levels, cycles, budgets[hp],
                margin_fraction=getattr(controller, "margin", 0.0),
                t_slice=t_slice, t_switch=t_switch,
                allow_boost=getattr(controller, "boost", False),
            )
            arrays = levels.arrays()
            freqs = arrays.frequencies
            if arrays.boost_frequency is not None:
                freqs = np.append(freqs, arrays.boost_frequency)
            service[hp] = ((t_slice + t_switch)
                           + cycles / freqs[decision.level_index])
        return service

    def _route_epoch(self, jobs: Sequence[FleetJob]) -> int:
        """Decide a whole arrival stream as one vectorized epoch.

        Speculates every ledger idle at every arrival it receives
        (``start == arrival``), derives the round-robin assignment in
        closed form, estimates per instance with
        :func:`~repro.dvfs.select_level_batch`, then verifies the
        speculation per instance: the committed prefix ends at the
        first job whose predecessor on the same instance finishes
        after it arrives.  Returns how many jobs were committed (0 =
        ineligible); the caller's scalar loop handles the rest from
        the reconstructed state.
        """
        if not self._epoch_eligible(jobs):
            return 0
        n = len(jobs)
        arrivals = np.array([job.arrival for job in jobs], dtype=float)
        positions: Dict[str, List[int]] = {}
        for g, job in enumerate(jobs):
            positions.setdefault(job.benchmark, []).append(g)
        chosen = np.empty(n, dtype=np.int64)
        for benchmark, pos in positions.items():
            peers = np.array(self._by_benchmark[benchmark],
                             dtype=np.int64)
            chosen[np.array(pos, dtype=np.int64)] = \
                peers[np.arange(len(pos)) % peers.size]
        # Per-instance service estimates and chain verification: the
        # prefix holds while every instance's previous job finishes at
        # or before its next one arrives.
        per_instance: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        v = n
        for c in range(len(self.specs)):
            gpos = np.flatnonzero(chosen == c)
            if gpos.size == 0:
                continue
            service = self._estimate_batch(
                c, [jobs[g] for g in gpos], arrivals[gpos])
            finishes = arrivals[gpos] + service
            per_instance[c] = (gpos, finishes)
            if gpos.size > 1:
                bad = np.flatnonzero(
                    finishes[:-1] > arrivals[gpos][1:])
                if bad.size:
                    v = min(v, int(gpos[bad[0] + 1]))
        if v < 1:
            return 0
        # Backlog telemetry: with idle-verified chains, an instance
        # contributes at most its last committed finish — busy at a
        # later global arrival only while that finish lies beyond it.
        gidx = np.arange(v)
        arr_v = arrivals[:v]
        busy_total = np.zeros(v, dtype=np.int64)
        inst_busy: Dict[int, np.ndarray] = {}
        zeros_busy = np.zeros(v, dtype=bool)
        for c, (gpos, finishes) in per_instance.items():
            gp = gpos[gpos < v]
            if gp.size == 0:
                continue
            fc = finishes[:gp.size]
            j = np.searchsorted(gp, gidx, side="left") - 1
            busy = (j >= 0) & (fc[np.clip(j, 0, fc.size - 1)] > arr_v)
            inst_busy[c] = busy
            busy_total += busy
            ledger = self._ledgers[c]
            ledger.clock = float(fc[-1])
            ledger._finishes = deque(fc.tolist())
            ledger._in_flight = int(gp.size)
        for benchmark, pos in positions.items():
            self._rr[benchmark] = int(np.searchsorted(pos, v))
        peer_tuples = {b: tuple(p)
                       for b, p in self._by_benchmark.items()}
        chosen_l = chosen[:v].tolist()
        for g in range(v):
            job = jobs[g]
            peers = peer_tuples[job.benchmark]
            self.assignments[job.index] = chosen_l[g]
            self.routed[chosen_l[g]].append(job)
            self.routing_log.append(RoutingDecision(
                index=job.index, benchmark=job.benchmark,
                tenant=job.tenant, arrival=job.arrival,
                candidates=peers,
                backlogs=tuple(
                    int(inst_busy.get(c, zeros_busy)[g])
                    for c in peers),
                chosen=chosen_l[g]))
        self.n_offered = v
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("serve.fleet.offered", v)
            observer.metrics.inc("serve.fleet.routed", v)
            observer.metrics.inc("serve.fleet.epochs")
            observer.metrics.inc("serve.fleet.epoch_jobs", v)
            series = observer.timeseries
            arr_l = arr_v.tolist()
            busy_l = busy_total.tolist()
            for g in range(v):
                series.observe("serve.fleet.backlog", arr_l[g],
                               busy_l[g])
                series.observe("serve.fleet.shed", arr_l[g], 0.0)
        return v


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
    from dataclasses import replace as _replace
    return [_replace(o, decision_s=0.0,
                     job=_replace(o.job, features=None))
            for o in result.outcomes]


def _run_shard(task: Tuple[ShardSpec, List[FleetJob]]) -> StreamResult:
    """Worker body: serve one instance's routed sub-stream.

    Must stay a module-level function (pmap pickles it).  SLO
    judgement stays off inside shards — windows are only complete
    fleet-wide, so :func:`serve_fleet` finalizes once at the end.
    """
    spec, jobs = task
    stream = spec.make_stream()
    stream.slo_live = False
    t0 = time.perf_counter()
    for job in jobs:
        stream.offer(job.job)
    stream.drain()
    result = stream.result(wall_s=time.perf_counter() - t0)
    _emit_stream_summary(result)
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
    :func:`repro.check.check_fleet` and raises
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
    t0 = time.perf_counter()
    with span("serve.fleet", shards=len(specs), policy=config.policy,
              jobs=len(jobs)):
        routed = dispatcher.dispatch(jobs)
        tasks = list(zip(dispatcher.specs, routed))
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
        tenants={job.index: job.tenant for job in jobs},
        benchmarks={job.index: job.benchmark for job in jobs},
        n_offered=dispatcher.n_offered,
        wall_s=time.perf_counter() - t0,
    )
    strict = config.strict
    if strict is None:
        strict = strict_checks_enabled()
    if strict:
        from ..check import InvariantError, check_fleet
        violations = check_fleet(result)
        if violations:
            raise InvariantError(violations)
    return result

"""Job sources for the online serving runtime.

The offline flow evaluates controllers over a *batch* of
:class:`~repro.runtime.jobs.JobRecord` objects released on rigid
period boundaries.  A serving runtime instead sees jobs *arrive*: the
stream layer pins each record to an arrival instant drawn from a
seeded arrival process — Poisson (open-loop steady traffic), bursty
(on/off phases at the same average rate) or a drifting variable
frame rate — over the existing workload generators, so every stream
is reproducible from ``(benchmark, scale, rate, seed)`` alone.
Orthogonal scenario knobs reorder job *sizes* adversarially
(:func:`adversarial_order`) and split one record pool into
mixed-deadline service classes (:func:`split_by_deadline`).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from ..runtime.jobs import JobRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..accelerators.base import JobInput
    from ..experiments.runner import BenchmarkBundle


@dataclass(frozen=True)
class StreamJob:
    """One job of a stream: a record plus its arrival instant.

    ``job_input`` carries the raw encoded inputs when the stream will
    predict online (the slice simulation needs them); record-replay
    streams leave it ``None`` and reuse the precomputed prediction.
    """

    index: int
    record: JobRecord
    arrival: float
    job_input: Optional["JobInput"] = None

    def __post_init__(self) -> None:
        # Chained, so NaN fails too: a bare `< 0.0` test lets it by.
        if not 0.0 <= self.arrival < math.inf:
            raise ValueError("arrival time must be finite and "
                             f"non-negative, got {self.arrival!r}")


def _require_positive(name: str, value: float) -> None:
    """Reject a zero, negative, NaN or infinite ``value`` by name."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def poisson_arrivals(rate: float, duration: Optional[float] = None,
                     n_jobs: Optional[int] = None,
                     seed: int = 0) -> List[float]:
    """Arrival instants of a Poisson process at ``rate`` jobs/s.

    Bounded by ``duration`` seconds or by ``n_jobs`` arrivals
    (exactly one must be given).  Deterministic in ``seed``.

    The gaps come from vector draws, which yield the same values as
    one scalar draw per gap, and ``np.cumsum`` adds them in sequence
    (never pairwise), so each instant is the running sum to the bit.
    """
    _require_positive("rate", rate)
    if (duration is None) == (n_jobs is None):
        raise ValueError("give exactly one of duration= or n_jobs=")
    if duration is not None:
        _require_positive("duration", duration)
    elif not (isinstance(n_jobs, numbers.Integral) and n_jobs >= 1):
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / rate
    if n_jobs is not None:
        return np.cumsum(rng.exponential(scale, size=n_jobs)).tolist()
    # Draw about the expected count per chunk; each chunk's sums
    # continue from the last instant of the one before.
    chunk = int(min(rate * duration, 65535.0)) + 1
    times: List[float] = []
    now = 0.0
    while True:
        gaps = rng.exponential(scale, size=chunk)
        gaps[0] += now
        instants = np.cumsum(gaps)
        end = int(np.searchsorted(instants, duration))
        times.extend(instants[:end].tolist())
        if end < chunk:
            return times
        now = instants[-1]


def burst_arrivals(rate: float, duration: float, seed: int = 0,
                   period: float = 1.0, duty: float = 0.3) -> List[float]:
    """On/off bursty arrivals averaging ``rate`` jobs/s.

    Each ``period`` starts with an *on* phase lasting ``duty`` of the
    period during which arrivals are Poisson at ``rate / duty``; the
    rest of the period is silent.  The long-run average rate is
    ``rate``, but the instantaneous rate during a burst is
    ``1 / duty`` times higher — the admission-queue stress case.
    """
    _require_positive("rate", rate)
    _require_positive("duration", duration)
    if not 0.0 < duty <= 1.0:
        raise ValueError("duty must be in (0, 1]")
    if period <= 0.0:
        raise ValueError("period must be positive")
    # Generate a plain Poisson process on the compressed "busy clock"
    # (total on-time), then expand each instant back onto the wall
    # clock: busy time u falls in period u // on_per_period, at offset
    # u % on_per_period from that period's start.
    on_per_period = period * duty
    busy = poisson_arrivals(rate / duty, duration=duration * duty,
                            seed=seed)
    times = []
    for u in busy:
        k = int(u // on_per_period)
        wall = k * period + (u - k * on_per_period)
        if wall >= duration:
            break
        times.append(wall)
    return times


def vfr_arrivals(rate: float, n_jobs: int, seed: int = 0,
                 jitter: float = 0.25, floor: float = 0.25,
                 ceil: float = 4.0) -> List[float]:
    """Variable-frame-rate arrivals: a frame clock whose rate drifts.

    Models a camera or decoder whose frame rate wanders: each frame's
    instantaneous rate follows a seeded geometric random walk
    (log-normal steps of scale ``jitter``) clamped to
    ``[rate * floor, rate * ceil]``, and the next arrival lands one
    instantaneous period after the previous one.  Unlike Poisson
    traffic the gaps are strongly correlated — sustained fast phases
    build real backlog, sustained slow phases drain it — which is the
    frame-deadline stress case Poisson smoothing never produces.
    Deterministic in ``seed``.
    """
    _require_positive("rate", rate)
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if jitter < 0.0:
        raise ValueError("jitter cannot be negative")
    if not 0.0 < floor <= 1.0 <= ceil:
        raise ValueError("need 0 < floor <= 1 <= ceil")
    rng = np.random.default_rng(seed)
    times: List[float] = []
    now = 0.0
    f = rate
    for _ in range(n_jobs):
        f = float(np.clip(f * np.exp(rng.normal(0.0, jitter)),
                          rate * floor, rate * ceil))
        now += 1.0 / f
        times.append(now)
    return times


#: Orderings :func:`adversarial_order` knows how to produce.
ADVERSARIAL_MODES = ("front_loaded", "alternating", "ramp")


def adversarial_order(records: Sequence[JobRecord],
                      mode: str = "front_loaded",
                      seed: int = 0) -> List[JobRecord]:
    """Reorder records so job *sizes* arrive adversarially.

    The arrival process fixes *when* jobs come; this knob fixes *which
    size* comes when — the controller-hostile distributions a uniform
    record cycle never exercises:

    * ``front_loaded`` — largest jobs first: the backlog a burst
      builds is made of the most expensive work;
    * ``alternating`` — largest/smallest interleaved: every job is a
      worst case for history- and PID-style predictors and maximizes
      DVFS level changes;
    * ``ramp`` — ascending sizes: lulls feedback controllers into low
      levels, then (on record cycling) cliffs back to the smallest.

    Ties are broken by a seeded shuffle so equal-size records do not
    depend on input order.  The result is a permutation: same records,
    indices untouched (re-indexing happens in
    :func:`stream_from_records`).
    """
    if mode not in ADVERSARIAL_MODES:
        raise ValueError(
            f"unknown adversarial mode {mode!r}; "
            f"expected one of {ADVERSARIAL_MODES}")
    if not records:
        raise ValueError("cannot reorder zero records")
    rng = np.random.default_rng(seed)
    shuffled = list(records)
    perm = rng.permutation(len(shuffled))
    shuffled = [shuffled[int(i)] for i in perm]
    ascending = sorted(shuffled, key=lambda r: r.actual_cycles)
    if mode == "ramp":
        return ascending
    if mode == "front_loaded":
        return ascending[::-1]
    # alternating: big, small, next-big, next-small, ...
    out: List[JobRecord] = []
    lo, hi = 0, len(ascending) - 1
    while lo <= hi:
        out.append(ascending[hi])
        hi -= 1
        if lo <= hi:
            out.append(ascending[lo])
            lo += 1
    return out


@dataclass(frozen=True)
class DeadlineClass:
    """One service class of a mixed-deadline workload.

    ``deadline`` is the per-job latency bound of every job routed to
    this class; ``weight`` biases the seeded assignment (relative to
    the other classes' weights).
    """

    name: str
    deadline: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        # isfinite, because NaN passes a bare `<= 0` test.
        for key in ("deadline", "weight"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{key} must be positive and finite, got {value!r}")


def _class_draw(probs, rng: np.random.Generator) -> Callable[[], int]:
    """A class index per call, drawn as ``rng.choice(len(probs),
    p=probs)`` draws one: that call bisects the cdf built here with one
    uniform draw, so the same draws pick the same classes, without its
    per-call validation of ``p``."""
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    uniform = rng.random
    return lambda: bisect_right(cdf, uniform())


def split_by_deadline(records: Sequence[JobRecord],
                      classes: Sequence[DeadlineClass],
                      seed: int = 0) -> Dict[str, List[JobRecord]]:
    """Partition records across deadline classes, seeded and total.

    Each record is assigned to exactly one class by a seeded
    ``weight``-biased draw; every class is guaranteed at least one
    record (the largest class donates when a draw leaves one empty),
    so each class can directly feed one
    :class:`~repro.serve.server.AcceleratorStream` whose
    :class:`~repro.serve.server.ServeConfig` carries that class's
    deadline — the per-stream checker then audits every class under
    its own bound.  Returns ``{class name: records}`` preserving
    relative record order within each class.
    """
    if not classes:
        raise ValueError("need at least one deadline class")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ValueError("deadline class names must be unique")
    if len(records) < len(classes):
        raise ValueError(
            f"{len(records)} record(s) cannot cover "
            f"{len(classes)} deadline classes")
    weights = np.array([c.weight for c in classes], dtype=float)
    total = weights.sum()
    if not math.isfinite(total):
        raise ValueError("deadline class weights must sum to a finite "
                         f"value, got {total!r}")
    draw = _class_draw(weights / total, np.random.default_rng(seed))
    out: Dict[str, List[JobRecord]] = {name: [] for name in names}
    for record in records:
        out[names[draw()]].append(record)
    for name in names:  # non-empty guarantee
        if not out[name]:
            donor = max(names, key=lambda n: len(out[n]))
            out[name].append(out[donor].pop())
    return out


#: What a re-indexed record copies besides its new ``index``.
_COPIED_FIELDS = tuple(f.name for f in fields(JobRecord)
                       if f.name != "index")


def _reindexed(record: JobRecord, index: int) -> JobRecord:
    """``dataclasses.replace(record, index=index)``, field by field.

    The record was validated when it was built, so the copy skips
    ``__init__``.  It stores through ``object.__setattr__`` rather than
    the instance ``__dict__``: on CPython 3.11 touching ``__dict__``
    materializes it and slows every later attribute read of the copy.
    """
    copy = object.__new__(JobRecord)
    setattr_ = object.__setattr__
    setattr_(copy, "index", index)
    for name in _COPIED_FIELDS:
        setattr_(copy, name, getattr(record, name))
    return copy


def stream_from_records(records: Sequence[JobRecord],
                        arrivals: Sequence[float],
                        inputs: Optional[Sequence["JobInput"]] = None
                        ) -> List[StreamJob]:
    """Pin arrival times to records, cycling records as needed.

    The stream is re-indexed 0..n-1 (records keep their payload but
    take the stream position as ``index``) so stream invariants can
    key on a dense, unique index space.
    """
    if not records:
        raise ValueError("cannot build a stream from zero records")
    if inputs is not None and len(inputs) != len(records):
        raise ValueError("inputs must pair 1:1 with records")
    jobs: List[StreamJob] = []
    for i, arrival in enumerate(sorted(arrivals)):
        k = i % len(records)
        record = _reindexed(records[k], i)
        jobs.append(StreamJob(
            index=i, record=record, arrival=float(arrival),
            job_input=inputs[k] if inputs is not None else None,
        ))
    return jobs


@dataclass(frozen=True)
class FleetJob:
    """One job of a *mixed* fleet stream: a tagged :class:`StreamJob`.

    The fleet dispatcher routes on the tags — ``benchmark`` names the
    accelerator type the job needs (only instances of that type are
    candidates) and ``tenant`` names the paying client the per-tenant
    rate limits and conservation identities key on.  The wrapped
    ``job`` carries the fleet-wide dense index, so one index space
    spans dispatcher sheds and every shard's outcomes.
    """

    benchmark: str
    tenant: str
    job: StreamJob

    @property
    def index(self) -> int:
        return self.job.index

    @property
    def arrival(self) -> float:
        return self.job.arrival


def mixed_stream_jobs(records_by_benchmark: Mapping[str, Sequence[JobRecord]],
                      arrivals: Sequence[float],
                      seed: int = 0,
                      weights: Optional[Mapping[str, float]] = None,
                      tenants: Sequence[str] = ("default",)
                      ) -> List[FleetJob]:
    """One interleaved job stream over several benchmarks and tenants.

    Each arrival instant draws a benchmark (optionally ``weights``-
    biased, uniform otherwise) and a tenant (uniform) from a seeded
    generator, then cycles that benchmark's records — so the whole
    mixed stream is reproducible from ``(records, arrivals, seed)``
    alone.  Jobs are re-indexed 0..n-1 *fleet-wide* in arrival order;
    per-benchmark record cycling is independent of the interleaving.
    """
    if not records_by_benchmark:
        raise ValueError("need at least one benchmark to mix")
    if not tenants:
        raise ValueError("need at least one tenant")
    names = list(records_by_benchmark)
    for name in names:
        if not records_by_benchmark[name]:
            raise ValueError(f"benchmark {name!r} has zero records")
    if weights is not None:
        raw = [float(weights.get(name, 0.0)) for name in names]
        # NaN fails every comparison, so test for what is allowed.
        if not (all(w >= 0.0 for w in raw) and 0.0 < sum(raw) < math.inf):
            raise ValueError("weights must be non-negative and sum to a "
                             "finite value > 0")
        probs = [w / sum(raw) for w in raw]
    else:
        probs = [1.0 / len(names)] * len(names)

    rng = np.random.default_rng(seed)
    draw = _class_draw(probs, rng)
    cursor = {name: 0 for name in names}
    jobs: List[FleetJob] = []
    for i, arrival in enumerate(sorted(arrivals)):
        name = names[draw()]
        tenant = str(tenants[int(rng.integers(len(tenants)))])
        records = records_by_benchmark[name]
        k = cursor[name] % len(records)
        cursor[name] += 1
        jobs.append(FleetJob(
            benchmark=name, tenant=tenant,
            job=StreamJob(index=i, record=_reindexed(records[k], i),
                          arrival=float(arrival)),
        ))
    return jobs


def build_mixed_stream(bundles: Mapping[str, "BenchmarkBundle"],
                       arrivals: Sequence[float],
                       seed: int = 0,
                       weights: Optional[Mapping[str, float]] = None,
                       tenants: Sequence[str] = ("default",)
                       ) -> List[FleetJob]:
    """A mixed fleet stream over several benchmark bundles.

    The bundle analogue of :func:`build_stream_jobs`: cycles each
    bundle's precomputed test records under a seeded benchmark/tenant
    interleaving.  Jobs carry no encoded inputs: fleet shards replay
    the records.
    """
    records = {name: bundle.test_records
               for name, bundle in bundles.items()}
    return mixed_stream_jobs(records, arrivals, seed=seed,
                             weights=weights, tenants=tenants)


def build_stream_jobs(bundle: "BenchmarkBundle",
                      arrivals: Sequence[float],
                      with_inputs: bool = False) -> List[StreamJob]:
    """A stream over a benchmark bundle's test workload.

    Cycles the bundle's precomputed test records across the arrival
    instants; ``with_inputs=True`` also attaches the encoded job
    inputs so a :class:`~repro.serve.server.SlicePredictor` can run
    the prediction slice online.
    """
    inputs = None
    if with_inputs:
        inputs = [bundle.design.encode_job(item)
                  for item in bundle.workload.test]
        inputs = inputs[:len(bundle.test_records)]
    return stream_from_records(bundle.test_records, arrivals, inputs)

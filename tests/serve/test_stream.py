"""Arrival processes and stream construction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.serve import (
    StreamJob,
    burst_arrivals,
    mixed_stream_jobs,
    poisson_arrivals,
    stream_from_records,
)
from tests.conftest import job


def test_poisson_deterministic_in_seed():
    a = poisson_arrivals(50.0, duration=2.0, seed=7)
    b = poisson_arrivals(50.0, duration=2.0, seed=7)
    c = poisson_arrivals(50.0, duration=2.0, seed=8)
    assert a == b
    assert a != c


def test_poisson_duration_bound():
    times = poisson_arrivals(100.0, duration=1.5, seed=0)
    assert all(0.0 < t < 1.5 for t in times)
    assert times == sorted(times)
    # Law of large numbers, loosely: ~150 arrivals expected.
    assert 100 < len(times) < 210


def test_poisson_n_jobs_bound():
    times = poisson_arrivals(100.0, n_jobs=37, seed=3)
    assert len(times) == 37
    assert times == sorted(times)


def test_poisson_mean_rate():
    times = poisson_arrivals(200.0, n_jobs=4000, seed=1)
    mean_gap = times[-1] / len(times)
    assert mean_gap == pytest.approx(1.0 / 200.0, rel=0.1)


def test_poisson_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        poisson_arrivals(10.0, duration=1.0, n_jobs=5)
    with pytest.raises(ValueError, match="exactly one"):
        poisson_arrivals(10.0)
    with pytest.raises(ValueError, match="rate"):
        poisson_arrivals(0.0, duration=1.0)


@pytest.mark.parametrize("kwargs,name", [
    ({"rate": 0.0, "n_jobs": 10}, "rate"),
    ({"rate": -5.0, "n_jobs": 10}, "rate"),
    ({"rate": math.nan, "n_jobs": 10}, "rate"),
    ({"rate": math.inf, "n_jobs": 10}, "rate"),
    ({"rate": 10.0, "n_jobs": 0}, "n_jobs"),
    ({"rate": 10.0, "n_jobs": -3}, "n_jobs"),
    ({"rate": 10.0, "duration": 0.0}, "duration"),
    ({"rate": 10.0, "duration": -1.0}, "duration"),
    ({"rate": 10.0, "duration": math.nan}, "duration"),
    ({"rate": 10.0, "duration": math.inf}, "duration"),
])
def test_poisson_rejects_bad_arguments_by_name(kwargs, name):
    """A NaN rate used to serve NaN arrivals, an infinite one stacked
    every arrival at t = 0, and ``n_jobs=0`` still produced a job."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        poisson_arrivals(**kwargs)


@pytest.mark.parametrize("rate,duration,name", [
    (0.0, 1.0, "rate"),
    (-5.0, 1.0, "rate"),
    (math.nan, 1.0, "rate"),
    (math.inf, 1.0, "rate"),
    (10.0, 0.0, "duration"),
    (10.0, -1.0, "duration"),
    (10.0, math.nan, "duration"),
    (10.0, math.inf, "duration"),
])
def test_burst_rejects_bad_rate_or_duration_by_name(rate, duration, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        burst_arrivals(rate, duration=duration)


def test_burst_preserves_average_rate():
    times = burst_arrivals(200.0, duration=20.0, seed=2)
    assert len(times) / 20.0 == pytest.approx(200.0, rel=0.15)
    assert times == sorted(times)
    assert all(0.0 <= t < 20.0 for t in times)


def test_burst_has_silent_phases():
    """Every arrival lands inside the on-phase of its period."""
    period, duty = 1.0, 0.3
    times = burst_arrivals(100.0, duration=10.0, seed=5,
                           period=period, duty=duty)
    assert times  # a 10 s window at 100/s is never empty
    for t in times:
        assert (t % period) <= period * duty + 1e-9


def test_burst_argument_validation():
    with pytest.raises(ValueError, match="duty"):
        burst_arrivals(10.0, duration=1.0, duty=0.0)
    with pytest.raises(ValueError, match="period"):
        burst_arrivals(10.0, duration=1.0, period=-1.0)


def test_stream_job_rejects_negative_arrival():
    with pytest.raises(ValueError, match="negative"):
        StreamJob(index=0, record=job(0, 100), arrival=-0.5)


@pytest.mark.parametrize("arrival", [math.nan, math.inf])
def test_stream_job_rejects_non_finite_arrival(arrival):
    with pytest.raises(ValueError, match="finite"):
        StreamJob(index=0, record=job(0, 100), arrival=arrival)


def test_stream_from_records_cycles_and_reindexes():
    records = [job(0, 100), job(1, 200)]
    jobs = stream_from_records(records, [0.3, 0.1, 0.2, 0.4, 0.5])
    assert [j.index for j in jobs] == [0, 1, 2, 3, 4]
    assert [j.record.index for j in jobs] == [0, 1, 2, 3, 4]
    # Arrivals sorted, records cycled in order.
    assert [j.arrival for j in jobs] == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert [j.record.actual_cycles for j in jobs] == \
        [100, 200, 100, 200, 100]


def test_stream_from_records_validation():
    with pytest.raises(ValueError, match="zero records"):
        stream_from_records([], [0.1])
    with pytest.raises(ValueError, match="1:1"):
        stream_from_records([job(0, 100)], [0.1], inputs=[None, None])


@pytest.mark.parametrize("n_jobs", [2.5, 3.0, "7"])
def test_poisson_rejects_a_fractional_job_count(n_jobs):
    with pytest.raises(ValueError, match="^n_jobs must be an integer"):
        poisson_arrivals(10.0, n_jobs=n_jobs)


# -- bit-identical stream builds --------------------------------------

def _scalar_poisson(rate, seed, n_jobs=None, duration=None):
    """The one-draw-per-gap loop :func:`poisson_arrivals` replaced."""
    rng = np.random.default_rng(seed)
    times, now = [], 0.0
    while True:
        now += float(rng.exponential(1.0 / rate))
        if duration is not None and now >= duration:
            return times
        times.append(now)
        if n_jobs is not None and len(times) >= n_jobs:
            return times


@pytest.mark.parametrize("rate", [30.0, 250.0])
def test_poisson_n_jobs_equals_scalar_draws(rate):
    for seed in range(5):
        assert poisson_arrivals(rate, n_jobs=3000, seed=seed) \
            == _scalar_poisson(rate, seed, n_jobs=3000)


@pytest.mark.parametrize("rate,duration,seeds", [
    (100.0, 1.0, range(10)),     # about half the seeds need a 2nd chunk
    (30.0, 0.02, range(10)),     # one-gap chunks, often no arrival
    (40_000.0, 2.0, range(1)),   # chunks capped at 65,536 gaps
])
def test_poisson_duration_equals_scalar_draws(rate, duration, seeds):
    chunk = int(min(rate * duration, 65535.0)) + 1
    chunked = 0
    for seed in seeds:
        times = poisson_arrivals(rate, duration=duration, seed=seed)
        assert times == _scalar_poisson(rate, seed, duration=duration)
        chunked += len(times) >= chunk
    if rate * duration >= 100.0:
        assert chunked  # the sums carried over a chunk boundary


def _choice_reference(records, arrivals, seed, weights, tenants):
    """``(benchmark, tenant, record position)`` per arrival, drawn with
    the per-arrival ``rng.choice(n, p=probs)`` the stream used to make."""
    names = list(records)
    if weights is None:
        probs = [1.0 / len(names)] * len(names)
    else:
        raw = [float(weights.get(name, 0.0)) for name in names]
        probs = [w / sum(raw) for w in raw]
    rng = np.random.default_rng(seed)
    cursor = dict.fromkeys(names, 0)
    out = []
    for _ in sorted(arrivals):
        name = names[int(rng.choice(len(names), p=probs))]
        tenant = tenants[int(rng.integers(len(tenants)))]
        out.append((name, tenant, cursor[name] % len(records[name])))
        cursor[name] += 1
    return out


@pytest.mark.parametrize("weights", [
    None,
    {"alpha": 1.0, "beta": 6.0, "gamma": 0.5},
    {"alpha": 0.0, "beta": 2.0, "gamma": 1.0},
], ids=["uniform", "skewed", "zero_weight"])
def test_mixed_stream_draws_equal_choice_with_p(weights):
    """One uniform draw bisected into the cdf picks what
    ``rng.choice(p=...)`` picked, interleaved with the tenant draws; each
    record is ``dataclasses.replace(source, index=i)``."""
    features = np.arange(3.0)
    records = {name: [replace(job(k, 100 * (k + 1)), features=features,
                              predicted_cycles=50.0 * k, slice_cycles=k)
                      for k in range(n)]
               for name, n in (("alpha", 3), ("beta", 5), ("gamma", 2))}
    arrivals = poisson_arrivals(400.0, n_jobs=2000, seed=9)
    tenants = ("gold", "free", "spot")
    for seed in range(4):
        jobs = mixed_stream_jobs(records, arrivals, seed=seed,
                                 weights=weights, tenants=tenants)
        expected = _choice_reference(records, arrivals, seed, weights,
                                     tenants)
        assert [(j.benchmark, j.tenant) for j in jobs] \
            == [(name, tenant) for name, tenant, _ in expected]
        for i, (fleet_job, (name, _, k)) in enumerate(zip(jobs, expected)):
            source = records[name][k]
            assert fleet_job.index == fleet_job.job.record.index == i
            assert fleet_job.job.record == replace(source, index=i)
            assert fleet_job.job.record.features is source.features


def test_mixed_stream_rejects_weights_it_cannot_draw_from():
    records = {"alpha": [job(0, 100)], "beta": [job(1, 200)]}
    for weights in ({"alpha": math.nan, "beta": 1.0},
                    {"alpha": math.inf, "beta": 1.0},
                    {"alpha": -1.0, "beta": 2.0},
                    {"alpha": 0.0}):
        with pytest.raises(ValueError, match="^weights must be"):
            mixed_stream_jobs(records, [0.1, 0.2], weights=weights)


def test_stream_records_equal_a_dataclass_replace():
    records = [replace(job(k, 100 + k), features=np.full(2, k),
                       predicted_cycles=90.0 + k, coarse_param=k)
               for k in range(3)]
    jobs = stream_from_records(records, [0.1 * i for i in range(7)])
    for i, stream_job in enumerate(jobs):
        source = records[i % 3]
        assert stream_job.record == replace(source, index=i)
        assert stream_job.record.features is source.features


# -- variable-frame-rate arrivals ------------------------------------

def test_vfr_deterministic_and_sorted():
    from repro.serve import vfr_arrivals

    a = vfr_arrivals(60.0, n_jobs=200, seed=4)
    b = vfr_arrivals(60.0, n_jobs=200, seed=4)
    c = vfr_arrivals(60.0, n_jobs=200, seed=5)
    assert a == b
    assert a != c
    assert len(a) == 200
    assert a == sorted(a)
    assert a[0] > 0.0


def test_vfr_gaps_bounded_by_floor_and_ceil():
    from repro.serve import vfr_arrivals

    rate, floor, ceil = 100.0, 0.5, 2.0
    times = vfr_arrivals(rate, n_jobs=500, seed=9,
                         jitter=0.4, floor=floor, ceil=ceil)
    gaps = [b - a for a, b in zip([0.0] + times[:-1], times)]
    for gap in gaps:
        assert 1.0 / (rate * ceil) - 1e-12 <= gap \
            <= 1.0 / (rate * floor) + 1e-12


def test_vfr_gaps_are_correlated_not_poisson():
    """Consecutive gaps come from a random walk: the lag-1
    autocorrelation is clearly positive (Poisson gaps have none)."""
    import numpy as np

    from repro.serve import vfr_arrivals

    times = vfr_arrivals(60.0, n_jobs=2000, seed=11, jitter=0.2)
    gaps = np.diff(np.array([0.0] + times))
    x, y = gaps[:-1] - gaps.mean(), gaps[1:] - gaps.mean()
    rho = float((x * y).mean() / gaps.var())
    assert rho > 0.5


def test_vfr_argument_validation():
    from repro.serve import vfr_arrivals

    with pytest.raises(ValueError, match="rate"):
        vfr_arrivals(0.0, n_jobs=5)
    with pytest.raises(ValueError, match="n_jobs"):
        vfr_arrivals(10.0, n_jobs=0)
    with pytest.raises(ValueError, match="jitter"):
        vfr_arrivals(10.0, n_jobs=5, jitter=-0.1)
    with pytest.raises(ValueError, match="floor"):
        vfr_arrivals(10.0, n_jobs=5, floor=1.5)


# -- adversarial size ordering ---------------------------------------

def _sized_records(sizes):
    return [job(i, c) for i, c in enumerate(sizes)]


def test_adversarial_front_loaded_descends():
    from repro.serve import adversarial_order

    records = _sized_records([30, 10, 50, 20, 40])
    out = adversarial_order(records, "front_loaded", seed=0)
    assert [r.actual_cycles for r in out] == [50, 40, 30, 20, 10]
    # A permutation: same records, same indices, just reordered.
    assert sorted(r.index for r in out) == [0, 1, 2, 3, 4]


def test_adversarial_ramp_ascends():
    from repro.serve import adversarial_order

    records = _sized_records([30, 10, 50, 20, 40])
    out = adversarial_order(records, "ramp", seed=0)
    assert [r.actual_cycles for r in out] == [10, 20, 30, 40, 50]


def test_adversarial_alternating_interleaves():
    from repro.serve import adversarial_order

    records = _sized_records([30, 10, 50, 20, 40])
    out = adversarial_order(records, "alternating", seed=0)
    assert [r.actual_cycles for r in out] == [50, 10, 40, 20, 30]


def test_adversarial_tie_break_is_seeded():
    from repro.serve import adversarial_order

    records = _sized_records([7, 7, 7, 7, 7, 7, 7, 7])
    a = [r.index for r in adversarial_order(records, "ramp", seed=1)]
    b = [r.index for r in adversarial_order(records, "ramp", seed=1)]
    assert a == b
    seeds = {tuple(r.index for r in
                   adversarial_order(records, "ramp", seed=s))
             for s in range(8)}
    assert len(seeds) > 1  # ties genuinely shuffle across seeds


def test_adversarial_argument_validation():
    from repro.serve import adversarial_order

    with pytest.raises(ValueError, match="unknown adversarial mode"):
        adversarial_order(_sized_records([1]), "chaotic")
    with pytest.raises(ValueError, match="zero records"):
        adversarial_order([], "ramp")


# -- mixed-deadline service classes ----------------------------------

def test_split_by_deadline_partitions_every_record():
    from repro.serve import DeadlineClass, split_by_deadline

    records = _sized_records(range(1, 101))
    classes = (DeadlineClass("tight", 0.002, weight=1.0),
               DeadlineClass("loose", 0.016, weight=3.0))
    parts = split_by_deadline(records, classes, seed=6)
    assert set(parts) == {"tight", "loose"}
    merged = sorted(r.index for part in parts.values() for r in part)
    assert merged == list(range(100))  # indices are 0..99  # a partition, nothing doubled
    # Weights bias the draw ~3:1.
    assert len(parts["loose"]) > len(parts["tight"])


def test_split_by_deadline_never_leaves_a_class_empty():
    from repro.serve import DeadlineClass, split_by_deadline

    records = _sized_records([5, 6])
    classes = (DeadlineClass("a", 0.01, weight=1000.0),
               DeadlineClass("b", 0.01, weight=0.001))
    parts = split_by_deadline(records, classes, seed=0)
    assert len(parts["a"]) == 1 and len(parts["b"]) == 1


def test_split_by_deadline_is_deterministic():
    from repro.serve import DeadlineClass, split_by_deadline

    records = _sized_records(range(1, 41))
    classes = (DeadlineClass("a", 0.01), DeadlineClass("b", 0.02))
    a = split_by_deadline(records, classes, seed=3)
    b = split_by_deadline(records, classes, seed=3)
    assert {k: [r.index for r in v] for k, v in a.items()} \
        == {k: [r.index for r in v] for k, v in b.items()}


def test_split_by_deadline_argument_validation():
    from repro.serve import DeadlineClass, split_by_deadline

    with pytest.raises(ValueError, match="deadline must be positive"):
        DeadlineClass("x", 0.0)
    with pytest.raises(ValueError, match="weight must be positive"):
        DeadlineClass("x", 0.01, weight=0.0)
    with pytest.raises(ValueError, match="at least one"):
        split_by_deadline(_sized_records([1]), ())
    with pytest.raises(ValueError, match="unique"):
        split_by_deadline(_sized_records([1, 2]),
                          (DeadlineClass("a", 0.1),
                           DeadlineClass("a", 0.2)))
    with pytest.raises(ValueError, match="cannot cover"):
        split_by_deadline(_sized_records([1]),
                          (DeadlineClass("a", 0.1),
                           DeadlineClass("b", 0.2)))

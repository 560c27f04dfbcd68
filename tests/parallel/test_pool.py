"""Tests for the process-pool execution layer (``repro.parallel.pool``)."""

import pytest

from repro.obs import session
from repro.parallel import (
    get_default_jobs,
    pmap,
    resolve_jobs,
    set_default_jobs,
)
from repro.parallel.pool import balanced_chunks


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _nested(x):
    # A worker that itself calls pmap: must degrade to serial (daemonic
    # workers cannot fork grandchildren) and still return exact results.
    return sum(pmap(_square, range(x), jobs=4))


def test_pmap_preserves_input_order():
    items = list(range(37))
    assert pmap(_square, items, jobs=4) == [x * x for x in items]


def test_parallel_matches_serial():
    items = list(range(100, 0, -7))
    assert pmap(_square, items, jobs=4) == pmap(_square, items, jobs=1)


def test_chunk_size_one_still_ordered():
    # The default split cuts 4 chunks per worker: 12 items over 3
    # workers give 12 one-item chunks, still returned in input order.
    items = list(range(12))
    with session(command="pmap-test") as obs:
        assert pmap(_square, items, jobs=3) == [x * x for x in items]
    (record,) = [s for s in obs.tracer.spans if s.name == "pmap"]
    assert record.labels == {"mode": "parallel", "tasks": 12,
                             "workers": 3, "chunks": 12}


def test_serial_path_accepts_lambdas():
    # jobs=1 never pickles, so unpicklable callables are fine.
    assert pmap(lambda x: x + 1, [1, 2, 3], jobs=1) == [2, 3, 4]


def test_exceptions_propagate_from_workers():
    with pytest.raises(ValueError, match="boom on 3"):
        pmap(_boom, range(6), jobs=2)


def test_nested_pmap_degrades_to_serial():
    expected = [sum(y * y for y in range(x)) for x in [3, 5, 8]]
    assert pmap(_nested, [3, 5, 8], jobs=2) == expected


def test_default_jobs_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert get_default_jobs() == 6
    assert resolve_jobs(None) == 6
    assert resolve_jobs(2) == 2


def test_default_jobs_without_env_is_serial():
    assert get_default_jobs() == 1
    assert resolve_jobs() == 1


def test_set_default_jobs_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "6")
    set_default_jobs(3)
    assert get_default_jobs() == 3


def test_invalid_jobs_rejected(monkeypatch):
    with pytest.raises(ValueError):
        set_default_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(0)
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ValueError):
        get_default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-2")
    with pytest.raises(ValueError):
        get_default_jobs()


def test_pmap_emits_pool_metrics():
    with session(command="pmap-test") as obs:
        pmap(_square, range(10), jobs=2, label="sq")
        counters = obs.metrics.counters
        assert counters["pool.maps"] == 1
        assert counters["pool.tasks"] == 10
        assert counters["pool.tasks.sq"] == 10
        assert obs.metrics.gauges["pool.workers"] == 2
        assert 0.0 < obs.metrics.gauges["pool.utilization"] <= 1.0


def test_pmap_empty_and_singleton():
    assert pmap(_square, [], jobs=4) == []
    assert pmap(_square, [7], jobs=4) == [49]


WORKERS = 4


@pytest.mark.parametrize("n", [0, 1, WORKERS - 1, WORKERS + 1,
                               WORKERS, 3 * WORKERS + 2])
def test_balanced_chunks_invariants(n):
    """The degenerate-n regression: for every n — including n smaller
    than the worker count — chunks are non-empty, contiguous, within
    one item of each other, and concatenate back to the input."""
    items = list(range(n))
    chunks = balanced_chunks(items, WORKERS)
    assert [x for chunk in chunks for x in chunk] == items
    assert len(chunks) == min(n, WORKERS)
    assert all(chunk for chunk in chunks)
    if chunks:
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1


def test_balanced_chunks_validates():
    with pytest.raises(ValueError, match="n_chunks"):
        balanced_chunks([1, 2], 0)
    assert balanced_chunks([], 5) == []
    assert balanced_chunks([1], 5) == [[1]]


@pytest.mark.parametrize("n", [0, 1, WORKERS - 1, WORKERS + 1])
def test_pmap_degenerate_sizes_match_serial(n):
    items = list(range(n))
    assert pmap(_square, items, jobs=WORKERS) == \
        pmap(_square, items, jobs=1)

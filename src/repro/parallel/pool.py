"""Process-pool execution layer: a deterministic parallel map.

:func:`pmap` fans a picklable function out over a pool of worker
processes while keeping the result order identical to the input order,
so a parallel run is bit-identical to a serial one — the property every
caller in the offline flow (job recording, the Lasso path, bundle
builds) relies on.  ``jobs=1`` (the default) short-circuits to a plain
list comprehension with zero multiprocessing overhead.

The ambient worker count comes from :func:`set_default_jobs` (the CLI's
``--jobs`` flag) or the ``REPRO_JOBS`` environment variable; library
code passes ``jobs=None`` and lets :func:`resolve_jobs` decide.  Pool
workers are daemonic, so a worker that itself calls :func:`pmap`
(e.g. ``record_jobs`` inside a parallel bundle build) degrades to the
serial path instead of forking grandchildren.

Every map emits spans and metrics into the PR 1 observability
subsystem: ``pool.tasks``/``pool.maps`` counters, ``pool.workers`` and
``pool.utilization`` gauges, and a ``pool.map_s`` wall-clock histogram
— ``repro report`` summarizes them as pool effectiveness.  Observers
are process-local: a forked worker replaces the inherited observer
with a fresh file-less one (so span buffers and event files are only
ever written by the parent), records into it, and ships its
bucket-level metrics snapshot back with every chunk result; the
parent merges each snapshot into the ambient registry, so ``sim.*``
counters and worker-side histograms survive ``--jobs N`` instead of
dying with the pool.  A chunk that somehow arrives without telemetry
is counted in ``pool.dropped_observers`` so reports can flag
undercounted runs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Callable, List, Optional, Sequence, TypeVar

from ..obs import get_observer, span
from .cache import get_cache, take_stats

T = TypeVar("T")
R = TypeVar("R")

_DEFAULT_JOBS: Optional[int] = None

#: Worker-process state installed by the pool initializer.
_WORKER_FN: Optional[Callable] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the ambient worker count (``None`` restores env/serial)."""
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def get_default_jobs() -> int:
    """Ambient worker count: ``set_default_jobs``, else ``REPRO_JOBS``,
    else 1 (serial)."""
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    raw = os.environ.get("REPRO_JOBS", "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}")
        if value < 1:
            raise ValueError("REPRO_JOBS must be >= 1")
        return value
    return 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalize a ``jobs`` argument (``None`` -> ambient default).

    Inside a daemonic pool worker this always returns 1: nested
    parallelism would need grandchild processes, which multiprocessing
    forbids, so nested maps run serially (and still bit-identically).
    """
    if jobs is None:
        jobs = get_default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if multiprocessing.current_process().daemon:
        return 1
    return jobs


def _init_worker(fn: Callable) -> None:
    # Runs once per worker process.  Replace any observer forked from
    # the parent with a fresh file-less one: worker-side spans/events
    # must never reach the parent's buffers/files through shared
    # descriptors, but worker metrics are kept and shipped home.
    global _WORKER_FN
    _WORKER_FN = fn
    from ..obs.merge import activate_worker
    activate_worker()
    take_stats()  # the parent's counts, forked: already counted there


def _run_chunk(chunk: Sequence) -> tuple:
    # Worker body: apply the installed function to one chunk of items,
    # reporting the chunk's busy time for utilization accounting and
    # its metrics and cache-count deltas for parent-side aggregation.
    from ..obs.merge import worker_snapshot
    t0 = time.perf_counter()
    results = [_WORKER_FN(item) for item in chunk]
    busy = time.perf_counter() - t0
    return results, busy, worker_snapshot(), take_stats()


def _note_metrics(label: str, n_tasks: int, workers: int,
                  busy_s: float, wall_s: float) -> None:
    observer = get_observer()
    if observer is None:
        return
    metrics = observer.metrics
    metrics.inc("pool.maps")
    metrics.inc("pool.tasks", n_tasks)
    metrics.inc(f"pool.tasks.{label}", n_tasks)
    metrics.inc("pool.busy_s", busy_s)
    metrics.set_gauge("pool.workers", workers)
    if wall_s > 0 and workers > 0:
        metrics.set_gauge("pool.utilization",
                          min(busy_s / (wall_s * workers), 1.0))
    metrics.observe("pool.map_s", wall_s)


def balanced_chunks(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split ``items`` into ``n_chunks`` contiguous, balanced chunks.

    Chunk sizes differ by at most one and no chunk is empty (the chunk
    count is capped at ``len(items)``), so a split never produces the
    degenerate shapes naive ``ceil(n / target)`` slicing yields when
    ``n`` barely exceeds — or falls short of — the chunk target.
    Concatenating the chunks reproduces ``items`` exactly, in order.
    """
    items = list(items)
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n = len(items)
    if n == 0:
        return []
    n_chunks = min(n_chunks, n)
    base, extra = divmod(n, n_chunks)
    chunks: List[List[T]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


def pmap(fn: Callable[[T], R], items: Sequence[T],
         jobs: Optional[int] = None,
         label: str = "pmap") -> List[R]:
    """Map ``fn`` over ``items`` across worker processes, in order.

    * ``jobs=None`` resolves via :func:`resolve_jobs`; ``jobs=1`` (or a
      single item, or a daemonic caller) runs serially in-process.
    * the work is split into ``4 * jobs`` balanced chunks (fewer when
      there are fewer items): large enough to amortize IPC, small
      enough to balance uneven item costs.
    * ``fn`` and the items must be picklable (a module-level function
      or :func:`functools.partial` of one); exceptions raised by ``fn``
      propagate to the caller.

    Results are returned in input order regardless of which worker
    finished first, making parallel runs bit-identical to serial ones.
    """
    items = list(items)
    n = len(items)
    workers = min(resolve_jobs(jobs), max(n, 1))
    if workers <= 1 or n <= 1:
        with span(label, mode="serial", tasks=n):
            t0 = time.perf_counter()
            results = [fn(item) for item in items]
            busy = time.perf_counter() - t0
        _note_metrics(label, n, 1, busy, busy)
        return results
    chunks = balanced_chunks(items, workers * 4)
    context = _pool_context()
    if context is None:  # no usable start method: degrade gracefully
        return pmap(fn, items, jobs=1, label=label)
    with span(label, mode="parallel", tasks=n, workers=workers,
              chunks=len(chunks)):
        t0 = time.perf_counter()
        with context.Pool(processes=workers, initializer=_init_worker,
                          initargs=(fn,)) as pool:
            chunk_results = pool.map(_run_chunk, chunks, chunksize=1)
        wall = time.perf_counter() - t0
    results: List[R] = []
    busy = 0.0
    snapshots = []
    cache = get_cache()
    for chunk_out, chunk_busy, snapshot, cache_stats in chunk_results:
        results.extend(chunk_out)
        busy += chunk_busy
        snapshots.append(snapshot)
        if cache is not None and cache_stats is not None:
            cache.stats.absorb(cache_stats)
    from ..obs.merge import absorb_snapshots
    absorb_snapshots(snapshots)
    _note_metrics(label, n, workers, busy, wall)
    return results


def _pool_context():
    # Prefer fork (cheap, shares the built design modules copy-on-write);
    # fall back to the platform default, or to None when multiprocessing
    # has no usable start method at all.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        pass
    try:
        return multiprocessing.get_context()
    except ValueError:  # pragma: no cover - exotic platforms
        return None

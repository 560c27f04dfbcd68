"""Persistent, content-addressed artifact cache for the offline flow.

Expensive flow artifacts — recorded :class:`FeatureMatrix` objects and
whole :class:`BenchmarkBundle` pickles — are stored on disk keyed by
the fingerprints of everything that determines them (design structure,
workload content, flow configuration, code version; see
:mod:`~repro.parallel.fingerprint`).  A warm rerun of an experiment
then skips RTL simulation entirely.

Layout: ``<root>/<kind>/<key[:2]>/<key>.pkl`` with atomic writes
(temp file + ``os.replace``), so concurrent workers and concurrent
repro processes can share one cache directory safely.  Reads touch the
entry's mtime, giving least-recently-used eviction when the cache
exceeds ``max_bytes`` (``REPRO_CACHE_MAX_BYTES``; unlimited when
unset).  Corrupt or truncated entries are deleted and counted as
misses — the cache never propagates a bad pickle.

The process-wide cache is configured by the CLI's ``--cache-dir`` flag
or the ``REPRO_CACHE_DIR`` environment variable and read through
:func:`get_cache` (``None`` = caching disabled, the default).  Every
hit/miss/put/eviction increments both the cache's own
:class:`CacheStats` and — when an observability session is active —
the ``cache.*`` counters that ``repro report`` summarizes.  Pool
workers ship both home with every chunk (:func:`take_stats`), so the
parent's footer and counters agree on a ``--jobs N`` run.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from ..obs import get_observer, span

#: Where ``--cache-dir`` without an argument puts artifacts.
DEFAULT_CACHE_DIR = "~/.cache/repro"


@dataclass
class CacheStats:
    """Lifetime operation counts of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> str:
        """One-line digest for CLI footers."""
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.puts} put(s), {self.evictions} evicted")

    def absorb(self, other: "CacheStats") -> None:
        """Add the counts another process made on its copy of the
        cache (a pool worker's, shipped home by :func:`take_stats`)."""
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions
        self.errors += other.errors
        for key, count in other.by_kind.items():
            self.by_kind[key] = self.by_kind.get(key, 0) + count


class ArtifactCache:
    """Content-addressed pickle store under one root directory."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "")
            max_bytes = int(raw) if raw else None
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def _count(self, metric: str, kind: str) -> None:
        self.stats.by_kind[f"{kind}.{metric}"] = (
            self.stats.by_kind.get(f"{kind}.{metric}", 0) + 1)
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc(f"cache.{metric}")
            observer.metrics.inc(f"cache.{metric}.{kind}")

    def has(self, kind: str, key: str) -> bool:
        """Whether an entry exists (no load, no stats update)."""
        return self._path(kind, key).exists()

    def get(self, kind: str, key: str):
        """Load the entry, or ``None`` on a miss or corrupt pickle."""
        path = self._path(kind, key)
        if not path.exists():
            self.stats.misses += 1
            self._count("miss", kind)
            return None
        with span("cache.load", kind=kind):
            try:
                with open(path, "rb") as handle:
                    artifact = pickle.load(handle)
            except Exception:
                # Torn write or stale schema: drop it, report a miss.
                self.stats.errors += 1
                self.stats.misses += 1
                self._count("miss", kind)
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
        try:
            os.utime(path)  # LRU bookkeeping
        except OSError:
            pass
        self.stats.hits += 1
        self._count("hit", kind)
        return artifact

    def put(self, kind: str, key: str, artifact) -> Path:
        """Store the entry atomically; evicts LRU entries if over
        ``max_bytes``."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with span("cache.store", kind=kind):
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(artifact, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        self.stats.puts += 1
        self._count("put", kind)
        self._evict_over_limit()
        return path

    def cached(self, kind: str, key: str, build):
        """Fetch the entry or build-and-store it via ``build()``."""
        artifact = self.get(kind, key)
        if artifact is None:
            artifact = build()
            self.put(kind, key, artifact)
        return artifact

    def entries(self):
        """All (path, size, mtime) triples currently stored."""
        out = []
        for path in self.root.glob("*/*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        return out

    def total_bytes(self) -> int:
        """Bytes currently used by cache entries."""
        return sum(size for _, size, _ in self.entries())

    def _evict_over_limit(self) -> None:
        if self.max_bytes is None:
            return
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for path, size, _ in sorted(entries, key=lambda e: e[2]):
            try:
                path.unlink()
            except OSError:
                continue
            self.stats.evictions += 1
            observer = get_observer()
            if observer is not None:
                observer.metrics.inc("cache.evict")
            total -= size
            if total <= self.max_bytes:
                break

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r})"


_CACHE: Optional[ArtifactCache] = None
_CACHE_CONFIGURED = False


def get_cache() -> Optional[ArtifactCache]:
    """The process-wide cache (``None`` = disabled).

    First call without an explicit :func:`set_cache` reads
    ``REPRO_CACHE_DIR`` from the environment.
    """
    global _CACHE, _CACHE_CONFIGURED
    if not _CACHE_CONFIGURED:
        _CACHE_CONFIGURED = True
        cache_dir = os.environ.get("REPRO_CACHE_DIR", "")
        if cache_dir:
            _CACHE = ArtifactCache(cache_dir)
    return _CACHE


def take_stats() -> Optional[CacheStats]:
    """Detach the process-wide cache's counts, leaving it new ones
    (``None`` = caching disabled).  Each pool worker ships its chunk's
    counts home this way, so the parent counts every operation once."""
    cache = get_cache()
    if cache is None:
        return None
    stats, cache.stats = cache.stats, CacheStats()
    return stats


def set_cache(cache: Optional[ArtifactCache]) -> Optional[ArtifactCache]:
    """Install (or with ``None`` disable) the process-wide cache."""
    global _CACHE, _CACHE_CONFIGURED
    _CACHE_CONFIGURED = True
    _CACHE = cache
    return cache

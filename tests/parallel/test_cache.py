"""Tests for the persistent artifact cache (``repro.parallel.cache``)."""

import os

import numpy as np
import pytest

from repro.obs import session
from repro.parallel import ArtifactCache, get_cache, pmap, set_cache


def test_roundtrip_returns_equal_artifact(tmp_path):
    cache = ArtifactCache(tmp_path)
    artifact = {"x": np.arange(12).reshape(3, 4), "meta": ("sha", 0.1)}
    cache.put("feature_matrix", "ab" * 32, artifact)
    loaded = cache.get("feature_matrix", "ab" * 32)
    assert loaded["meta"] == artifact["meta"]
    assert np.array_equal(loaded["x"], artifact["x"])
    assert cache.stats.hits == 1 and cache.stats.puts == 1


def test_miss_on_absent_key(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert cache.get("bundle", "00" * 32) is None
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.0
    assert not cache.has("bundle", "00" * 32)


def test_has_does_not_touch_stats(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("bundle", "cd" * 32, [1, 2, 3])
    assert cache.has("bundle", "cd" * 32)
    assert cache.stats.hits == 0 and cache.stats.misses == 0


def test_corrupt_entry_is_dropped_and_counted_as_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    path = cache.put("bundle", "ef" * 32, {"ok": True})
    path.write_bytes(b"not a pickle")
    assert cache.get("bundle", "ef" * 32) is None
    assert cache.stats.errors == 1 and cache.stats.misses == 1
    assert not path.exists()  # bad entry removed, next put is clean


def test_lru_eviction_over_max_bytes(tmp_path):
    blob = b"x" * 4096
    cache = ArtifactCache(tmp_path)  # no limit while seeding
    keys = [f"{i:02d}" * 32 for i in range(6)]
    paths = [cache.put("bundle", key, blob) for key in keys]
    # Backdate all but the last entry so LRU order is unambiguous.
    now = paths[-1].stat().st_mtime
    for age, path in enumerate(reversed(paths[:-1]), start=1):
        os.utime(path, (now - 100 * age, now - 100 * age))
    cache.max_bytes = 3 * len(blob)
    cache._evict_over_limit()
    assert cache.stats.evictions > 0
    assert cache.total_bytes() <= cache.max_bytes
    # Oldest entries go first; the most recent one survives.
    assert cache.has("bundle", keys[-1])
    assert not cache.has("bundle", keys[0])


def test_cached_builds_once(tmp_path):
    cache = ArtifactCache(tmp_path)
    calls = []

    def build():
        calls.append(1)
        return {"value": 42}

    first = cache.cached("bundle", "12" * 32, build)
    second = cache.cached("bundle", "12" * 32, build)
    assert first == second == {"value": 42}
    assert len(calls) == 1


def test_stats_describe_and_kind_breakdown(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("feature_matrix", "aa" * 32, [1])
    cache.get("feature_matrix", "aa" * 32)
    cache.get("bundle", "bb" * 32)
    assert "1 hit(s), 1 miss(es), 1 put(s)" in cache.stats.describe()
    assert cache.stats.by_kind["feature_matrix.hit"] == 1
    assert cache.stats.by_kind["bundle.miss"] == 1


def test_cache_operations_emit_obs_counters(tmp_path):
    cache = ArtifactCache(tmp_path)
    with session(command="cache-test") as obs:
        cache.get("bundle", "00" * 32)
        cache.put("bundle", "00" * 32, "artifact")
        cache.get("bundle", "00" * 32)
        counters = obs.metrics.counters
    assert counters["cache.miss"] == 1
    assert counters["cache.put"] == 1
    assert counters["cache.hit"] == 1
    assert counters["cache.hit.bundle"] == 1


def test_process_cache_configured_from_env(tmp_path, monkeypatch):
    import repro.parallel.cache as cache_mod

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
    monkeypatch.setattr(cache_mod, "_CACHE", None)
    monkeypatch.setattr(cache_mod, "_CACHE_CONFIGURED", False)
    cache = get_cache()
    assert cache is not None
    assert cache.root == tmp_path / "env-cache"
    assert set_cache(None) is None
    assert get_cache() is None  # explicit disable wins over env


def test_atomic_put_leaves_no_temp_files(tmp_path):
    cache = ArtifactCache(tmp_path)
    for i in range(5):
        cache.put("bundle", f"{i:02d}" * 32, list(range(100)))
    assert not list(tmp_path.rglob("*.tmp"))


def test_unpicklable_put_raises_and_leaves_no_entry(tmp_path):
    cache = ArtifactCache(tmp_path)
    with pytest.raises(Exception):
        cache.put("bundle", "aa" * 32, lambda: None)
    assert not cache.has("bundle", "aa" * 32)
    assert not list(tmp_path.rglob("*.tmp"))


def _put_entry(key):
    get_cache().put("blob", key * 32, key)
    return key


def test_pool_workers_count_their_operations_in_the_parent(tmp_path):
    """Operations that pool workers make on the process-wide cache land
    in the parent's stats, each counted once, as they land in the
    ``cache.*`` counters."""
    cache = set_cache(ArtifactCache(tmp_path))
    assert cache.get("blob", "00" * 32) is None  # the parent's own miss
    with session(command="cache-pool") as obs:
        assert pmap(_put_entry, ["01", "02", "03", "04"], jobs=2) \
            == ["01", "02", "03", "04"]
        counters = dict(obs.metrics.counters)
    assert (cache.stats.misses, cache.stats.puts) == (1, 4)
    assert cache.stats.by_kind == {"blob.miss": 1, "blob.put": 4}
    assert counters["cache.put"] == 4
    assert len(cache.entries()) == 4

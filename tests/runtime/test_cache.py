"""Unit tests for the bounded LRU cache."""

from __future__ import annotations

import pytest

from repro.runtime import LRUCache


class TestLRUSemantics:
    def test_basic_set_get(self):
        cache = LRUCache(maxsize=4)
        cache["a"] = 1
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["c"] = 3  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_read_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")     # "b" is now the LRU entry
        cache["c"] = 3     # evicts "b", not "a"
        assert "a" in cache
        assert "b" not in cache

    def test_overwrite_refreshes_recency_without_eviction(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10    # no eviction: key already present
        assert cache.evictions == 0
        cache["c"] = 3     # evicts "b"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_unbounded_mode(self):
        cache = LRUCache(maxsize=None)
        for i in range(10_000):
            cache[i] = i
        assert len(cache) == 10_000
        assert cache.evictions == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUCache(maxsize=-3)

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache["a"] = 1
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.misses == 1


class TestCounters:
    def test_hit_miss_counting(self):
        cache = LRUCache(maxsize=4)
        assert cache.hit_rate == 0.0
        cache["k"] = "v"
        assert cache.get("k") == "v"
        assert cache.get("absent") is None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_cached_falsy_values_count_as_hits(self):
        cache = LRUCache(maxsize=4)
        cache["zero"] = 0.0
        assert cache.get("zero") == 0.0
        assert cache.hits == 1
        assert cache.misses == 0

    def test_stats_shape(self):
        cache = LRUCache(maxsize=8)
        cache["a"] = 1
        cache.get("a")
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["maxsize"] == 8
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["evictions"] == 0
        assert stats["hit_rate"] == 1.0

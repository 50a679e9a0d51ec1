"""The serving tier's estimate cache: a stamped GenerationLRU.

LRU bounds, and the generation stamps that keep an estimate computed
against a superseded model or fallback gate from being served.
"""

import pytest

from repro.utils.lru import GenerationLRU


class TestLRU:
    def test_hit_and_miss(self):
        cache = GenerationLRU(max_entries=4)
        stamp = cache.stamp(["t"])
        assert cache.get("k") is None
        assert cache.put("k", 42.0, stamp)
        assert cache.get("k") == 42.0
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_bound(self):
        cache = GenerationLRU(max_entries=3)
        stamp = cache.stamp(["t"])
        for i in range(10):
            cache.put(f"k{i}", float(i), stamp)
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_least_recently_used_evicted_first(self):
        cache = GenerationLRU(max_entries=2)
        stamp = cache.stamp(["t"])
        cache.put("a", 1.0, stamp)
        cache.put("b", 2.0, stamp)
        assert cache.get("a") == 1.0  # touch 'a' so 'b' is LRU
        cache.put("c", 3.0, stamp)
        assert cache.get("b") is None
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0

    def test_put_refreshes_recency(self):
        cache = GenerationLRU(max_entries=2)
        stamp = cache.stamp(["t"])
        cache.put("a", 1.0, stamp)
        cache.put("b", 2.0, stamp)
        cache.put("a", 1.5, stamp)  # re-insert makes 'b' the LRU entry
        cache.put("c", 3.0, stamp)
        assert cache.get("b") is None
        assert cache.get("a") == 1.5

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            GenerationLRU(max_entries=0)


class TestGenerations:
    def test_bump_invalidates_lazily(self):
        cache = GenerationLRU(16)
        stamp = cache.stamp(["t", "u"])
        cache.put("k", 7.0, stamp)
        cache.bump_tables(["t"])
        assert cache.get("k") is None
        assert cache.invalidations == 1

    def test_bump_other_table_keeps_entry(self):
        cache = GenerationLRU(16)
        stamp = cache.stamp(["t"])
        cache.put("k", 7.0, stamp)
        cache.bump_tables(["unrelated"])
        assert cache.get("k") == 7.0

    def test_bump_all_invalidates_everything(self):
        cache = GenerationLRU(16)
        cache.put("a", 1.0, cache.stamp(["t"]))
        cache.put("b", 2.0, cache.stamp(["u"]))
        cache.bump_all()
        assert cache.get("a") is None
        assert cache.get("b") is None

    def test_stale_stamp_insert_refused(self):
        """An estimate computed before a model swap must not enter as
        current -- the mid-flight-refresh guarantee."""
        cache = GenerationLRU(16)
        stamp = cache.stamp(["t"])  # taken before "inference"
        cache.bump_tables(["t"])  # loader refresh happens mid-flight
        assert not cache.put("k", 9.0, stamp)
        assert cache.get("k") is None

    def test_fresh_stamp_after_bump_is_served(self):
        cache = GenerationLRU(16)
        cache.bump_tables(["t"])
        stamp = cache.stamp(["t"])
        assert cache.put("k", 9.0, stamp)
        assert cache.get("k") == 9.0

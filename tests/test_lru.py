"""GenerationLRU: the one cache class, in each of the roles it plays.

The serving estimate cache stamps its entries by table generation; the
plan-scope and evidence-mask caches key theirs by model and mirror their
counters into the metrics registry.  Every case runs in all three roles.
"""

import sys
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.utils.lru import GenerationLRU

#: role -> (registry prefix, entries carry generation stamps)
ROLES = {
    "estimate": (None, True),
    "plan": ("plan_cache", False),
    "evidence": ("evidence_cache", False),
}


@pytest.fixture(params=sorted(ROLES))
def role(request):
    return ROLES[request.param]


def make(role, max_entries=4):
    prefix, _stamped = role
    registry = MetricsRegistry()
    return GenerationLRU(max_entries, registry, prefix=prefix), registry


def fill(cache, role, key, value):
    """Insert the way the role does: a stamped put, or get-or-create."""
    _prefix, stamped = role
    if stamped:
        assert cache.put(key, value, cache.stamp(["t"]))
    else:
        assert cache.get_or_create(key, lambda: value) == value


def mirrored(registry, role, counter):
    prefix, _stamped = role
    metric = registry.get(f"{prefix}_{counter}_total")
    return None if metric is None else metric.value


def test_hit_miss_and_mirrored_counters(role):
    cache, registry = make(role)
    assert cache.get("k") is None
    fill(cache, role, "k", 1.5)
    assert cache.get("k") == 1.5
    assert (cache.hits, cache.invalidations, cache.evictions) == (1, 0, 0)
    if role[0] is None:
        assert len(registry) == 0  # not mirrored
        return
    # a get-or-create miss counts once, the initial get once
    assert (cache.misses, mirrored(registry, role, "misses")) == (2, 2)
    assert mirrored(registry, role, "hits") == 1
    # the never-fired counters have no series
    assert mirrored(registry, role, "invalidations") is None
    assert mirrored(registry, role, "evictions") is None


def test_lru_bound_and_recency(role):
    cache, registry = make(role, max_entries=2)
    fill(cache, role, "a", 1.0)
    fill(cache, role, "b", 2.0)
    assert cache.get("a") == 1.0  # 'b' is now least recently used
    fill(cache, role, "c", 3.0)
    assert len(cache) == 2 and cache.evictions == 1
    assert cache.get("b") is None
    assert (cache.get("a"), cache.get("c")) == (1.0, 3.0)
    if role[0] is not None:
        assert mirrored(registry, role, "evictions") == 1
    cache.clear()
    assert len(cache) == 0


def test_concurrent_get_or_create_shares_one_value(role):
    """More threads than cores, switching as often as the interpreter
    allows: every thread gets the one value stored per key, and no
    counter update is lost."""
    cache, registry = make(role, max_entries=64)
    threads_n, rounds, keys = 8, 200, 16
    barrier = threading.Barrier(threads_n)
    seen: list[dict] = [{} for _ in range(threads_n)]

    def worker(index: int) -> None:
        barrier.wait()
        for step in range(rounds):
            key = (index + step) % keys
            value = cache.get_or_create(key, object)
            assert seen[index].setdefault(key, value) is value

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for key in range(keys):
        assert len({id(s[key]) for s in seen if key in s}) == 1
    assert cache.hits + cache.misses == threads_n * rounds
    if role[0] is not None:
        total = mirrored(registry, role, "hits") + mirrored(registry, role, "misses")
        assert total == threads_n * rounds


def test_bumps_reach_stamped_entries_only(role):
    cache, registry = make(role)
    stale = cache.stamp(["t"])
    fill(cache, role, "k", 7.0)
    cache.bump_tables(["t"])
    assert not cache.put("late", 9.0, stale)  # computed before the bump
    _prefix, stamped = role
    # A stamped entry goes stale; an entry keyed by its model ignores bumps
    # (its model's replacement simply never asks for that key again).
    assert cache.get("k") == (None if stamped else 7.0)
    assert cache.invalidations == (2 if stamped else 1)
    cache.bump_all()
    assert cache.get("late") is None
    if role[0] is not None:
        assert mirrored(registry, role, "invalidations") == cache.invalidations


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        GenerationLRU(0)

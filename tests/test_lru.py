"""GenerationLRU: the one cache class, in each of the roles it plays.

The serving estimate cache puts answers under keys naming their model
snapshot; the plan-scope and evidence-mask caches get-or-create values
keyed by model and mirror their counters into the metrics registry.  Every
case runs in all three roles.
"""

import sys
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.utils.lru import GenerationLRU

#: role -> (registry prefix, entries are put rather than get-or-created)
ROLES = {
    "estimate": (None, True),
    "plan": ("plan_cache", False),
    "evidence": ("evidence_cache", False),
}


@pytest.fixture(params=sorted(ROLES))
def role(request):
    return ROLES[request.param]


def make(role, max_entries=4):
    prefix, _put = role
    registry = MetricsRegistry()
    return GenerationLRU(max_entries, registry, prefix=prefix), registry


def fill(cache, role, key, value):
    """Insert the way the role does: a put, or get-or-create."""
    _prefix, put = role
    if put:
        cache.put(key, value)
    else:
        assert cache.get_or_create(key, lambda: value) == value


def mirrored(registry, role, counter):
    prefix, _put = role
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


def test_superseded_keys_age_out(role):
    """Nothing is invalidated: an entry whose model was replaced is never
    asked for again and leaves by LRU eviction."""
    cache, registry = make(role, max_entries=2)
    fill(cache, role, ("model-1", "k"), 7.0)
    fill(cache, role, ("model-2", "k"), 9.0)  # the replacement's key
    assert cache.get(("model-2", "k")) == 9.0
    fill(cache, role, ("model-2", "j"), 3.0)
    assert cache.get(("model-1", "k")) is None  # aged out
    assert (cache.get(("model-2", "k")), cache.evictions) == (9.0, 1)
    assert cache.invalidations == 0
    if role[0] is not None:
        assert mirrored(registry, role, "invalidations") is None


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        GenerationLRU(0)

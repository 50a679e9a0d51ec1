"""The serving tier's estimate cache: a GenerationLRU keyed by snapshot.

LRU bounds, and the snapshot tokens in every key that keep an estimate
computed against a superseded model or fallback gate from being served.
"""

import pytest

from repro.estimators.base import CountEstimator
from repro.serving import EstimationService, ServingConfig
from repro.sql.query import CardQuery
from repro.utils.lru import GenerationLRU


class TestLRU:
    def test_hit_and_miss(self):
        cache = GenerationLRU(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", 42.0)
        assert cache.get("k") == 42.0
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_bound(self):
        cache = GenerationLRU(max_entries=3)
        for i in range(10):
            cache.put(f"k{i}", float(i))
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_least_recently_used_evicted_first(self):
        cache = GenerationLRU(max_entries=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0  # touch 'a' so 'b' is LRU
        cache.put("c", 3.0)
        assert cache.get("b") is None
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0

    def test_put_refreshes_recency(self):
        cache = GenerationLRU(max_entries=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.put("a", 1.5)  # re-insert makes 'b' the LRU entry
        cache.put("c", 3.0)
        assert cache.get("b") is None
        assert cache.get("a") == 1.5

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            GenerationLRU(max_entries=0)


class Snapshot(CountEstimator):
    """An immutable answer per table, named by per-table tokens."""

    name = "tokens"

    def __init__(self, answers: dict[str, float], tokens: dict[str, int]):
        self.answers, self.tokens = answers, tokens

    def cache_key(self, task: str, query: CardQuery) -> tuple:
        return tuple(self.tokens[t] for t in query.tables)

    def estimate_count(self, query: CardQuery) -> float:
        return sum(self.answers[t] for t in query.tables)


class Swapped(CountEstimator):
    """Publishes one snapshot at a time, the way the ByteCard facade does."""

    name = "swapped"

    def __init__(self):
        self.current = Snapshot({"t": 1.0, "u": 2.0}, {"t": 1, "u": 2})

    def publish(self, **answers: float) -> None:
        """New answers for some tables, each under a never-used token."""
        old = self.current
        fresh = max(old.tokens.values()) + 1
        tokens = dict(old.tokens)
        for offset, table in enumerate(answers):
            tokens[table] = fresh + offset
        self.current = Snapshot({**old.answers, **answers}, tokens)

    def snapshot(self) -> Snapshot:
        return self.current

    def estimate_count(self, query: CardQuery) -> float:
        return self.current.estimate_count(query)


T, U = CardQuery(("t",)), CardQuery(("u",))


@pytest.fixture
def swapped():
    estimator = Swapped()
    config = ServingConfig(deadline_ms=None, num_workers=1)
    with EstimationService(estimator, estimator, config=config) as service:
        yield estimator, service


class TestSnapshotKeys:
    def test_renewed_token_misses(self, swapped):
        estimator, service = swapped
        assert service.estimate_count(T) == 1.0
        estimator.publish(t=5.0)
        served = service.estimate_count_detail(T)
        assert (served.value, served.source) == (5.0, "model")
        assert service.stats().cache_misses == 2

    def test_other_tables_token_keeps_entry(self, swapped):
        estimator, service = swapped
        service.estimate_count(T)
        estimator.publish(u=5.0)
        served = service.estimate_count_detail(T)
        assert (served.value, served.source) == (1.0, "cache")

    def test_renewing_every_token_misses_everything(self, swapped):
        estimator, service = swapped
        service.estimate_count(T)
        service.estimate_count(U)
        estimator.publish(t=1.0, u=2.0)  # same answers, new tokens
        assert service.estimate_count_detail(T).source == "model"
        assert service.estimate_count_detail(U).source == "model"

    def test_answer_computed_mid_swap_is_keyed_by_its_snapshot(self, swapped):
        """A request reads the snapshot once: an answer it computes while a
        new snapshot is published is stored under the old one's key, so no
        later request is served from it."""
        estimator, service = swapped
        superseded = estimator.current
        compute = superseded.estimate_count

        def publish_mid_flight(query):
            estimator.publish(t=5.0)
            return compute(query)

        superseded.estimate_count = publish_mid_flight
        assert service.estimate_count(T) == 1.0  # the old snapshot's answer
        served = service.estimate_count_detail(T)
        assert (served.value, served.source) == (5.0, "model")

    def test_answer_under_new_token_is_served(self, swapped):
        estimator, service = swapped
        estimator.publish(t=5.0)
        assert service.estimate_count(T) == 5.0
        served = service.estimate_count_detail(T)
        assert (served.value, served.source) == (5.0, "cache")

"""Concurrency guarantees of the serving tier.

Three layers of hammering:

* a fast stub estimator under 8+ threads -- no lost or duplicated
  responses, counter consistency;
* a real :class:`ByteCard` behind the full cache pipeline -- bit-identical
  values against direct estimation;
* a versioned estimator with a *real* Model Loader refreshing mid-flight --
  a cache hit must never reflect a model generation older than the last
  completed refresh (the stale-generation guarantee).
"""

import threading
import time

import numpy as np
import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.core.loader import ModelLoader
from repro.core.registry import ModelRegistry
from repro.core.serialization import serialize_bn
from repro.core.validator import ModelValidator
from repro.estimators.base import CountEstimator
from repro.estimators.bn import fit_tree_bn
from repro.serving import EstimationService, ServingConfig
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.workloads import aeolus_online

NUM_THREADS = 8
ROUNDS = 40


def make_query(value: float, table: str = "t") -> CardQuery:
    return CardQuery(
        tables=(table,),
        predicates=(TablePredicate(table, "c", PredicateOp.EQ, value),),
    )


class Echo(CountEstimator):
    """Returns the predicate value; any mixup across requests is visible."""

    name = "echo"

    def estimate_count(self, query: CardQuery) -> float:
        return float(query.predicates[0].value)

    def selectivity(self, query: CardQuery) -> float:
        return 0.5


class Fallback(CountEstimator):
    name = "fallback"

    def estimate_count(self, query: CardQuery) -> float:
        return -1.0

    def selectivity(self, query: CardQuery) -> float:
        return 1.0


class TestHammer:
    def test_no_lost_or_duplicated_responses(self):
        service = EstimationService(
            Echo(),
            Fallback(),
            config=ServingConfig(
                deadline_ms=None, num_workers=4, queue_capacity=256
            ),
        )
        mismatches: list[tuple[float, float]] = []
        errors: list[Exception] = []

        def client(thread_id: int) -> None:
            try:
                for round_no in range(ROUNDS):
                    # A mix of thread-private and shared (cacheable) values.
                    for value in (
                        float(1000 * thread_id + round_no),
                        float(round_no),
                    ):
                        got = service.estimate_count(make_query(value))
                        if got != value:
                            mismatches.append((value, got))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(NUM_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()
        assert not errors
        assert not mismatches
        stats = service.stats()
        expected_requests = NUM_THREADS * ROUNDS * 2
        assert stats.requests == expected_requests
        # Every request either hit or missed the cache -- none vanished.
        assert stats.cache_hits + stats.cache_misses == expected_requests
        assert stats.fallbacks == 0
        assert stats.cache_hits > 0  # shared values must actually share


@pytest.fixture(scope="module")
def served_bytecard(aeolus):
    config = ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=300,
        rbx_epochs=5,
        join_bucket_count=40,
        max_bins=32,
    )
    bytecard = ByteCard.build(aeolus, config=config, run_monitor=False)
    workload = aeolus_online(aeolus, num_queries=12, seed=404)
    return bytecard, workload


class TestServedByteCard:
    def test_served_estimates_match_direct(self, served_bytecard):
        bytecard, workload = served_bytecard
        queries = workload.queries
        expected = [bytecard.estimate_count(q) for q in queries]
        service = bytecard.serve(
            ServingConfig(
                deadline_ms=None,
                num_workers=NUM_THREADS,
                queue_capacity=256,
            )
        )
        mismatches: list[str] = []
        errors: list[Exception] = []

        def client() -> None:
            try:
                for _round in range(6):
                    for query, want in zip(queries, expected):
                        got = service.estimate_count(query)
                        if got != want:
                            mismatches.append(query.name)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(NUM_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()
        assert not errors
        assert not mismatches
        stats = service.stats()
        assert stats.requests == NUM_THREADS * 6 * len(queries)
        assert stats.cache_hits + stats.cache_misses == stats.requests
        assert stats.fallbacks == 0


class Versioned(CountEstimator):
    """Estimate = current model version; lets stale answers be detected."""

    name = "versioned"

    def __init__(self):
        self.version = 1

    def estimate_count(self, query: CardQuery) -> float:
        return float(self.version)

    def selectivity(self, query: CardQuery) -> float:
        return 0.5


class TestMidFlightRefresh:
    def test_refresh_never_serves_stale_generation(self):
        """A cache hit must never be older than the last finished refresh."""
        rng = np.random.default_rng(11)
        from repro.storage import Catalog, Table

        catalog = Catalog()
        catalog.register(
            Table.from_arrays(
                "t",
                {"a": rng.integers(0, 5, 500), "b": rng.integers(0, 9, 500)},
            )
        )
        blob = serialize_bn(fit_tree_bn(catalog.table("t"), ["a", "b"]))
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        validator = ModelValidator(1 << 30)
        from repro.core.engine import BNInferenceEngine

        loader = ModelLoader(
            registry,
            validator,
            engine_factory=lambda kind, name: BNInferenceEngine(
                catalog, validator
            ),
            max_total_bytes=1 << 30,
        )
        loader.refresh()

        versioned = Versioned()
        listeners = []

        class Facade:
            """ByteCard's half of the contract: swap, then notify."""

            add_invalidation_listener = staticmethod(listeners.append)

        service = EstimationService(
            versioned,
            Fallback(),
            config=ServingConfig(
                deadline_ms=None, num_workers=4, queue_capacity=256
            ),
            invalidations=Facade(),
        )
        floor = {"version": versioned.version}
        stale: list[tuple[float, int]] = []
        errors: list[Exception] = []
        stop = threading.Event()

        def refresher() -> None:
            try:
                for _ in range(15):
                    registry.publish("bn", "t", blob)  # newer timestamp
                    report = loader.refresh()
                    assert report.loaded  # the swap actually happened
                    versioned.version += 1
                    for listener in listeners:
                        listener(report.changed_tables())
                    floor["version"] = versioned.version
                    time.sleep(0.002)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    current_floor = floor["version"]
                    got = service.estimate_count(make_query(1.0))
                    if got < current_floor:
                        stale.append((got, current_floor))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(NUM_THREADS)]
        refresh_thread = threading.Thread(target=refresher)
        for t in threads:
            t.start()
        refresh_thread.start()
        refresh_thread.join()
        for t in threads:
            t.join()
        service.close()
        assert not errors
        assert not stale
        # The refreshes really did invalidate cached estimates.
        assert service.stats().cache_invalidations > 0
        assert loader.generation >= 15

"""Satellite: concurrent hammering of the registry and StatsCollector.

>= 8 threads increment counters, observe histograms, and record per-path
latencies; snapshots must be consistent (no lost increments, no torn
histogram state) and the disabled mode must stay a strict no-op.
"""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serving.stats import LATENCY_PATHS, StatsCollector

NUM_THREADS = 8
PER_THREAD = 2000


def hammer(num_threads: int, worker) -> None:
    barrier = threading.Barrier(num_threads)

    def run(index: int) -> None:
        barrier.wait()
        worker(index)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(num_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestRegistryConcurrency:
    def test_no_lost_counter_increments(self):
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            # Every thread resolves the same metric by name: creation and
            # increment both race across threads.
            for _ in range(PER_THREAD):
                registry.counter("hammered_total").inc()
                registry.counter("labeled_total", thread=index % 2).inc()

        hammer(NUM_THREADS, worker)
        assert registry.counter("hammered_total").value == NUM_THREADS * PER_THREAD
        total_labeled = (
            registry.counter("labeled_total", thread=0).value
            + registry.counter("labeled_total", thread=1).value
        )
        assert total_labeled == NUM_THREADS * PER_THREAD

    def test_histogram_never_observes_torn_state(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        torn: list[str] = []

        def writer(index: int) -> None:
            hist = registry.histogram("h", window=256)
            for i in range(PER_THREAD):
                hist.observe(float(i % 100))

        def reader() -> None:
            hist = registry.histogram("h", window=256)
            while not stop.is_set():
                snap = hist.snapshot()
                # Invariants that break if count/total/ring tear apart.
                if snap.count and not (snap.min <= snap.p50 <= snap.max):
                    torn.append(f"quantile outside bounds: {snap}")
                if snap.count and not (0.0 <= snap.mean <= 99.0):
                    torn.append(f"mean outside observed range: {snap}")

        observer = threading.Thread(target=reader)
        observer.start()
        hammer(NUM_THREADS, writer)
        stop.set()
        observer.join()
        assert not torn, torn[:3]
        assert registry.histogram("h", window=256).count == NUM_THREADS * PER_THREAD

    def test_series_appends_are_bounded_and_complete(self):
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            series = registry.series("s", maxlen=100_000)
            for i in range(PER_THREAD):
                series.append(float(index))

        hammer(NUM_THREADS, worker)
        values = registry.series("s", maxlen=100_000).values()
        assert len(values) == NUM_THREADS * PER_THREAD


class TestStatsCollectorConcurrency:
    def test_counters_and_path_latencies_survive_hammering(self):
        collector = StatsCollector(latency_window=4096)

        def worker(index: int) -> None:
            path = LATENCY_PATHS[index % len(LATENCY_PATHS)]
            for i in range(PER_THREAD):
                collector.requests["count"].inc()
                collector.path_histograms[path].observe(0.001 * (i % 10 + 1))
                if i % 10 == 0:
                    collector.fallbacks["error"].inc()

        hammer(NUM_THREADS, worker)
        stats = collector.snapshot()
        assert stats.requests == NUM_THREADS * PER_THREAD
        assert stats.errors == NUM_THREADS * (PER_THREAD // 10)
        assert stats.fallbacks == stats.errors
        # Every path saw exactly its threads' observations (thread i
        # records on path i mod len(LATENCY_PATHS)).
        for index, path in enumerate(LATENCY_PATHS):
            threads = len(range(index, NUM_THREADS, len(LATENCY_PATHS)))
            assert stats.path_latencies[path].count == threads * PER_THREAD
            assert stats.path_latencies[path].p50 > 0.0

    def test_snapshot_is_immutable_and_consistent_mid_flight(self):
        collector = StatsCollector(latency_window=512)
        stop = threading.Event()
        violations: list[str] = []

        def writer(index: int) -> None:
            for _ in range(PER_THREAD):
                collector.requests["count"].inc()
                collector.fallbacks["timeout"].inc()

        def reader() -> None:
            while not stop.is_set():
                stats = collector.snapshot()
                if stats.fallbacks != stats.timeouts:
                    violations.append(
                        f"fallbacks={stats.fallbacks} timeouts={stats.timeouts}"
                    )

        observer = threading.Thread(target=reader)
        observer.start()
        hammer(NUM_THREADS, writer)
        stop.set()
        observer.join()
        # The total is the sum of the reason counters the snapshot read: a
        # snapshot must never see them out of sync.
        assert not violations, violations[:3]


class TestDisabledOverhead:
    def test_disabled_registry_is_allocation_free_noop(self):
        registry = MetricsRegistry(enabled=False)

        def worker(index: int) -> None:
            for _ in range(PER_THREAD):
                registry.counter("c").inc()
                registry.histogram("h").observe(1.0)
                registry.series("s").append(1.0)

        hammer(NUM_THREADS, worker)
        assert len(registry) == 0

    def test_null_metric_is_shared_across_all_names(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.histogram("b")
        assert registry.gauge("c") is registry.series("d")

    def test_disabled_mode_overhead_is_bounded(self):
        """A disabled-registry increment must stay within a small multiple
        of a bare function call -- the near-zero-overhead contract."""
        import time

        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        n = 50_000

        def noop():
            pass

        start = time.perf_counter()
        for _ in range(n):
            noop()
        baseline = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(n):
            counter.inc()
        disabled = time.perf_counter() - start
        # Generous bound: CI machines are noisy; the point is that the
        # disabled path does no locking, hashing, or allocation.
        assert disabled < max(20 * baseline, 0.25), (disabled, baseline)

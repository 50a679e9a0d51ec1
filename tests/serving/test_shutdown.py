"""Graceful-shutdown ordering: drain in-flight, bound the teardown.

The contract under test: ``close()`` first stops admission (new requests
still get *answered*, via the fallback-rejected path), then waits out
in-flight learned work up to the timeout, then tears the pool down --
and a hung worker can never wedge the close call or interpreter exit.
"""

import threading
import time

from repro.errors import EstimationError
from repro.serving import EstimationService, ServingConfig, WorkerPool
from repro.sql.query import CardQuery, PredicateOp, TablePredicate

from tests.serving.test_service import Constant, Doubler, make_query


class Blocker(Doubler):
    """A model that blocks on an event until the test releases it."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def estimate_count(self, query: CardQuery) -> float:
        self.entered.set()
        self.calls += 1
        if not self.release.wait(timeout=30.0):  # pragma: no cover - hang guard
            raise EstimationError("blocker was never released")
        value = query.predicates[0].value
        return 2.0 * float(value)


class TestWorkerPool:
    def test_submit_and_result(self):
        with WorkerPool(num_workers=2, queue_capacity=4) as pool:
            future = pool.try_submit(lambda: 21 * 2)
            assert future is not None
            assert future.result(timeout=5) == 42

    def test_refuse_new_rejects_but_finishes_inflight(self):
        pool = WorkerPool(num_workers=1, queue_capacity=2)
        release = threading.Event()
        future = pool.try_submit(release.wait, 5.0)
        assert future is not None
        pool.refuse_new()
        assert pool.try_submit(lambda: 1) is None
        release.set()
        assert future.result(timeout=5) is True
        assert pool.close(timeout=5)

    def test_drain_waits_for_inflight(self):
        pool = WorkerPool(num_workers=2, queue_capacity=2)
        futures = [pool.try_submit(time.sleep, 0.05) for _ in range(4)]
        assert all(f is not None for f in futures)
        pool.refuse_new()
        assert pool.drain(timeout=5.0)
        assert all(f.done() for f in futures)
        pool.close(timeout=1)

    def test_close_is_bounded_with_hung_worker(self):
        pool = WorkerPool(num_workers=1, queue_capacity=4)
        hang = threading.Event()
        hung = pool.try_submit(hang.wait, 30.0)
        queued = pool.try_submit(lambda: 7)
        assert hung is not None and queued is not None
        start = time.monotonic()
        clean = pool.close(timeout=0.3)
        elapsed = time.monotonic() - start
        assert clean is False
        assert elapsed < 5.0
        # The queued-but-never-started future was cancelled, not lost.
        assert queued.cancelled()
        hang.set()  # release the daemon thread

    def test_an_admitted_caller_holds_a_slot_until_release(self):
        pool = WorkerPool(num_workers=1, queue_capacity=0)
        assert pool.admit()
        # The only slot is the caller's: nothing else is admitted meanwhile,
        # and a drain sees the caller's task as in flight.
        assert pool.try_submit(lambda: 1) is None
        assert not pool.admit()
        assert not pool.drain(timeout=0)
        pool.release()
        assert pool.drain(timeout=0)
        future = pool.try_submit(lambda: 1)
        assert future is not None and future.result(timeout=5) == 1
        pool.refuse_new()
        assert not pool.admit()
        assert pool.close(timeout=5)

    def test_shutdown_idempotent(self):
        pool = WorkerPool(num_workers=1)
        assert pool.close(timeout=1)
        assert pool.try_submit(lambda: 1) is None
        assert pool.close(timeout=1)


class TestServiceClose:
    def test_close_drains_inflight_then_rejects_to_fallback(self):
        service = EstimationService(
            Doubler(delay_s=0.05),
            Constant(99.0),
            config=ServingConfig(deadline_ms=None, enable_cache=False),
        )
        query = make_query(5.0)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(service.estimate_count_detail(query)),
            daemon=True,
        )
        thread.start()
        time.sleep(0.01)
        assert service.close(timeout=5.0) is True
        thread.join(timeout=5.0)
        assert results and results[0].value == 10.0
        assert results[0].source == "model"
        # Post-close requests are still answered -- degraded, never dropped.
        after = service.estimate_count_detail(query)
        assert after.source == "fallback-rejected"
        assert after.value == 99.0

    def test_inline_request_is_admitted_drained_and_refused_like_a_pooled_one(self):
        blocker = Blocker()
        service = EstimationService(
            blocker,
            Constant(7.0),
            config=ServingConfig(deadline_ms=None, enable_cache=False),
        )
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                service.estimate_count_detail(make_query(3.0))
            ),
            daemon=True,
        )
        thread.start()
        assert blocker.entered.wait(timeout=5.0)
        # The request runs on its caller's thread, yet the pool counts it.
        assert service.pool.drain(timeout=0) is False
        service.pool.refuse_new()
        refused = service.estimate_count_detail(make_query(4.0))
        assert refused.source == "fallback-rejected" and refused.value == 7.0
        assert blocker.calls == 1
        blocker.release.set()
        assert service.close(timeout=5.0) is True
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results[0].source == "model" and results[0].value == 6.0
        assert service.stats().rejected == 1

    def test_close_bounded_with_hung_model(self):
        blocker = Blocker()
        service = EstimationService(
            blocker,
            Constant(7.0),
            config=ServingConfig(deadline_ms=None, enable_cache=False),
        )
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                service.estimate_count_detail(make_query(3.0))
            ),
            daemon=True,
        )
        thread.start()
        assert blocker.entered.wait(timeout=5.0)
        start = time.monotonic()
        clean = service.close(timeout=0.3)
        assert clean is False
        assert time.monotonic() - start < 5.0
        blocker.release.set()
        thread.join(timeout=5.0)
        assert results  # the caller was unblocked, one way or the other

    def test_context_manager_closes(self):
        with EstimationService(Doubler(), Constant(1.0)) as service:
            assert service.estimate_count(make_query(4.0)) == 8.0
        assert service.pool.try_submit(lambda: 1) is None

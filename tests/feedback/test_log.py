"""Unit and concurrency tests for the runtime feedback log."""

import math
import threading

import pytest

from repro.feedback import FeedbackLog, FeedbackRecord
from repro.obs.metrics import MetricsRegistry


def _counter_value(registry, name, **labels):
    metric = registry.counter(name, **labels)
    return metric.value


class TestFeedbackRecord:
    def test_qerror_and_log_qerror(self):
        rec = FeedbackRecord(
            fingerprint="fp",
            table_scope=("t",),
            estimated=10.0,
            actual=100.0,
            timestamp=0.0,
        )
        assert rec.qerror == 10.0
        assert rec.log_qerror == pytest.approx(math.log(10.0))

    def test_perfect_pair_has_zero_mass(self):
        rec = FeedbackRecord("fp", ("t",), 42.0, 42.0, 0.0)
        assert rec.qerror == 1.0
        assert rec.log_qerror == 0.0


class TestFeedbackLog:
    def test_record_and_snapshot(self):
        log = FeedbackLog(capacity=8)
        log.record("a", ("t",), 10, 20)
        log.record("b", ("t", "u"), 5, 5, kind="join")
        snap = log.snapshot()
        assert len(log) == 2
        assert [r.fingerprint for r in snap] == ["a", "b"]
        assert snap[0].table_scope == ("t",)
        assert snap[1].kind == "join"

    def test_capacity_bounds_the_ring(self):
        log = FeedbackLog(capacity=4)
        for i in range(10):
            log.record(i, ("t",), 1, 1)
        assert len(log) == 4
        assert [r.fingerprint for r in log.snapshot()] == [6, 7, 8, 9]

    def test_default_capacity(self):
        log = FeedbackLog()
        assert log.capacity == 4096
        for i in range(4097):
            log.record(i, ("t",), 1, 1)
        assert len(log) == 4096
        assert log.snapshot()[0].fingerprint == 1

    def test_records_are_counted_by_kind(self):
        registry = MetricsRegistry(enabled=True)
        log = FeedbackLog(capacity=8, registry=registry)
        log.record("a", ("t",), 1, 2)
        log.record("b", ("t",), 1, 2)
        log.record("c", ("t", "u"), 1, 2, kind="join")
        counts = {
            kind: _counter_value(registry, "feedback_records_total", kind=kind)
            for kind in ("scan", "join")
        }
        assert counts == {"scan": 2, "join": 1}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FeedbackLog(capacity=0)
        with pytest.raises(ValueError):
            FeedbackLog(capacity=-1)

    def test_non_finite_pairs_are_dropped_and_counted(self):
        registry = MetricsRegistry(enabled=True)
        log = FeedbackLog(capacity=8, registry=registry)
        assert log.record("a", ("t",), float("nan"), 10) is None
        assert log.record("b", ("t",), 10, float("inf")) is None
        assert len(log) == 0
        assert (
            _counter_value(
                registry, "feedback_records_dropped_total", reason="non-finite"
            )
            == 2
        )

    def test_drop_reasons_preregistered_at_zero(self):
        """The one drop reason and both record kinds are exported as zeros
        before anything is recorded."""
        registry = MetricsRegistry(enabled=True)
        FeedbackLog(capacity=8, registry=registry)
        series = {
            (metric.name, metric.labels): metric.value
            for metric in registry.metrics()
        }
        assert series == {
            ("feedback_records_dropped_total", (("reason", "non-finite"),)): 0,
            ("feedback_records_total", (("kind", "join"),)): 0,
            ("feedback_records_total", (("kind", "scan"),)): 0,
        }

    def test_take_for_table_consumes_only_that_scope(self):
        log = FeedbackLog(capacity=16)
        log.record("a", ("t",), 1, 2)
        log.record("b", ("u",), 1, 2)
        log.record("c", ("t", "u"), 1, 2, kind="join")
        taken = log.take_for_table("t")
        assert [r.fingerprint for r in taken] == ["a"]
        assert len(log) == 2  # "u" scan and the join record stay
        assert log.take_for_table("t") == []

    def test_take_for_table_limit_keeps_most_recent(self):
        log = FeedbackLog(capacity=16)
        for i in range(6):
            log.record(i, ("t",), 1, 2)
        taken = log.take_for_table("t", limit=2)
        assert [r.fingerprint for r in taken] == [4, 5]
        assert [r.fingerprint for r in log.snapshot()] == [0, 1, 2, 3]

    def test_error_mass_sums_log_qerrors(self):
        log = FeedbackLog(capacity=8)
        log.record("a", ("t",), 10, 100)  # qerror 10
        log.record("b", ("t",), 100, 100)  # qerror 1
        log.record("c", ("u",), 1000, 1)  # other table
        assert log.error_mass("t") == pytest.approx(math.log(10.0))

    def test_scoped_tables(self):
        log = FeedbackLog(capacity=8)
        log.record("a", ("b_table",), 1, 1)
        log.record("b", ("a_table",), 1, 1)
        log.record("c", ("a_table", "b_table"), 1, 1, kind="join")
        assert log.scoped_tables() == ["a_table", "b_table"]


class TestConcurrency:
    def test_parallel_appends_while_monitor_drains(self):
        """Writer threads append while a consumer repeatedly drains; nothing
        is lost (beyond ring eviction), duplicated, or corrupted."""
        log = FeedbackLog(capacity=100_000)
        writers = 4
        per_writer = 2_000
        consumed: list[FeedbackRecord] = []
        stop = threading.Event()

        def write(worker: int) -> None:
            for i in range(per_writer):
                log.record((worker, i), ("t",), i + 1, i + 2)

        def consume() -> None:
            while not stop.is_set():
                consumed.extend(log.take_for_table("t"))
            consumed.extend(log.take_for_table("t"))

        consumer = threading.Thread(target=consume)
        consumer.start()
        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        consumer.join()

        fingerprints = [r.fingerprint for r in consumed]
        assert len(fingerprints) == writers * per_writer
        assert len(set(fingerprints)) == writers * per_writer
        assert len(log) == 0

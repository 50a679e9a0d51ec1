"""Micro-batcher protocol: work-conserving, one batch per key at a time.

No test here measures time.  Ordering is forced with events: a gated
``batch_fn`` holds the key busy while the test queues requests behind it,
then releases it and inspects which batches ran, with what, on which thread.
"""

import threading
import time

import pytest

from repro.serving.batching import MicroBatcher
from repro.sql.query import CardQuery, PredicateOp, TablePredicate

JOIN_TIMEOUT = 10.0


def make_query(table: str, value: float) -> CardQuery:
    return CardQuery(
        tables=(table,),
        predicates=(TablePredicate(table, "c", PredicateOp.EQ, value),),
    )


def values_of(queries: list[CardQuery]) -> list[float]:
    return [float(q.predicates[0].value) for q in queries]


def batch_double(key: str, queries: list[CardQuery]) -> list[float]:
    return [2.0 * v for v in values_of(queries)]


class GatedBatch:
    """A ``batch_fn`` whose first call on ``gated_key`` blocks until released.

    Records every call as ``(key, values, executing thread ident)``.
    """

    def __init__(self, gated_key: str = "t"):
        self.gated_key = gated_key
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls: list[tuple[str, list[float], int]] = []
        self._lock = threading.Lock()

    def __call__(self, key: str, queries: list[CardQuery]) -> list[float]:
        with self._lock:
            self.calls.append((key, values_of(queries), threading.get_ident()))
            first = key == self.gated_key and not self.entered.is_set()
        if first:
            self.entered.set()
            assert self.release.wait(JOIN_TIMEOUT), "gate never released"
        return batch_double(key, queries)


class Clients:
    """Client threads, one blocking ``estimate`` each; outcomes by value."""

    def __init__(self, batcher: MicroBatcher):
        self.batcher = batcher
        self.outcomes: dict[float, object] = {}
        self.idents: dict[float, int] = {}
        self.threads: list[threading.Thread] = []

    def send(self, key: str, value: float) -> None:
        def run() -> None:
            self.idents[value] = threading.get_ident()
            try:
                self.outcomes[value] = self.batcher.estimate(make_query(key, value))
            except Exception as exc:
                self.outcomes[value] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        self.threads.append(thread)

    def wait_queued(self, count: int, key: str = "t") -> None:
        deadline = time.monotonic() + JOIN_TIMEOUT
        while self.batcher.pending_count(key) < count:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.001)

    def join(self) -> None:
        for thread in self.threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()


class TestIdleKey:
    def test_runs_alone_on_the_calling_thread_without_waiting(self, monkeypatch):
        seen: list[tuple[int, int]] = []
        occupancies: list[int] = []

        def recording(key, queries):
            seen.append((len(queries), threading.get_ident()))
            return batch_double(key, queries)

        def no_wait(self, timeout=None):
            raise AssertionError("an idle key must not wait for anything")

        batcher = MicroBatcher(recording, max_batch_size=8, on_batch=occupancies.append)
        monkeypatch.setattr(threading.Event, "wait", no_wait)
        monkeypatch.setattr(threading.Condition, "wait", no_wait)
        for value in (21.0, 4.0, 4.0):
            assert batcher.estimate(make_query("t", value)) == 2.0 * value
        assert seen == [(1, threading.get_ident())] * 3
        assert occupancies == [1, 1, 1]
        assert batcher.pending_count() == 0

    def test_miscounting_batch_fn_is_an_error_and_frees_the_key(self):
        answers = iter([[], [7.0]])
        batcher = MicroBatcher(lambda key, queries: next(answers))
        with pytest.raises(RuntimeError, match="returned 0 values"):
            batcher.estimate(make_query("t", 1.0))
        assert batcher.estimate(make_query("t", 1.0)) == 7.0


class TestQueuedBehindABatch:
    def test_everything_queued_becomes_exactly_one_following_batch(self):
        gate = GatedBatch()
        occupancies: list[int] = []
        batcher = MicroBatcher(gate, max_batch_size=8, on_batch=occupancies.append)
        clients = Clients(batcher)
        clients.send("t", 0.0)
        assert gate.entered.wait(JOIN_TIMEOUT)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            clients.send("t", value)
        clients.wait_queued(5)
        gate.release.set()
        clients.join()
        assert clients.outcomes == {float(i): 2.0 * i for i in range(6)}
        assert [len(values) for _key, values, _ident in gate.calls] == [1, 5]
        assert sorted(gate.calls[1][1]) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert occupancies == [1, 5]
        assert batcher.pending_count() == 0

    def test_following_batches_split_at_max_batch_size(self):
        gate = GatedBatch()
        batcher = MicroBatcher(gate, max_batch_size=4)
        clients = Clients(batcher)
        clients.send("t", 0.0)
        assert gate.entered.wait(JOIN_TIMEOUT)
        for i in range(1, 11):
            clients.send("t", float(i))
        clients.wait_queued(10)
        gate.release.set()
        clients.join()
        assert clients.outcomes == {float(i): 2.0 * i for i in range(11)}
        assert [len(values) for _key, values, _ident in gate.calls] == [1, 4, 4, 2]
        served = [v for _key, values, _ident in gate.calls for v in values]
        assert sorted(served) == [float(i) for i in range(11)]
        # Each batch is executed by its own first member, not a helper thread.
        for _key, values, ident in gate.calls:
            assert clients.idents[values[0]] == ident
        assert batcher.pending_count() == 0

    def test_keys_never_mix_and_a_busy_key_does_not_hold_up_another(self):
        gate = GatedBatch(gated_key="a")
        batcher = MicroBatcher(gate, max_batch_size=8)
        clients = Clients(batcher)
        clients.send("a", 1.0)
        assert gate.entered.wait(JOIN_TIMEOUT)
        clients.send("a", 2.0)
        clients.send("a", 3.0)
        clients.wait_queued(2, key="a")
        # "b" is idle: answered at once, here, while "a" is still executing.
        assert batcher.estimate(make_query("b", 10.0)) == 20.0
        assert batcher.pending_count("a") == 2
        gate.release.set()
        clients.join()
        assert clients.outcomes == {1.0: 2.0, 2.0: 4.0, 3.0: 6.0}
        by_key = [(key, sorted(values)) for key, values, _ident in gate.calls]
        assert by_key == [("a", [1.0]), ("b", [10.0]), ("a", [2.0, 3.0])]

    def test_an_exception_reaches_every_member_of_that_batch_only(self):
        gate = GatedBatch()

        def second_batch_explodes(key, queries):
            if len(gate.calls) == 1:
                gate(key, queries)
                raise RuntimeError("model exploded")
            return gate(key, queries)

        batcher = MicroBatcher(second_batch_explodes, max_batch_size=3)
        clients = Clients(batcher)
        clients.send("t", 0.0)
        assert gate.entered.wait(JOIN_TIMEOUT)
        for value in (1.0, 2.0, 3.0, 4.0):
            clients.send("t", value)
        clients.wait_queued(4)
        gate.release.set()
        clients.join()
        assert [len(values) for _key, values, _ident in gate.calls] == [1, 3, 1]
        failed = set(gate.calls[1][1])
        for value, outcome in clients.outcomes.items():
            if value in failed:
                assert isinstance(outcome, RuntimeError)
                assert "model exploded" in str(outcome)
            else:
                assert outcome == 2.0 * value
        assert batcher.pending_count() == 0
        # The key was freed: the next request is an idle-key batch of one.
        assert batcher.estimate(make_query("t", 9.0)) == 18.0
        assert gate.calls[-1][1] == [9.0]


class TestUnderContention:
    def test_no_request_lost_and_one_batch_per_key_at_a_time(self):
        import sys

        threads_n, rounds, cap = 8, 150, 4
        executing: dict[str, int] = {"a": 0, "b": 0}
        overlaps: list[str] = []
        sizes: list[int] = []

        def guarded(key, queries):
            executing[key] += 1
            if executing[key] != 1:
                overlaps.append(key)
            sizes.append(len(queries))
            values = batch_double(key, queries)
            executing[key] -= 1
            return values

        occupancies: list[int] = []
        batcher = MicroBatcher(guarded, max_batch_size=cap, on_batch=occupancies.append)
        wrong: list[tuple[float, float]] = []

        def client(thread_id: int) -> None:
            for round_no in range(rounds):
                value = float(thread_id * rounds + round_no)
                got = batcher.estimate(make_query("ab"[round_no % 2], value))
                if got != 2.0 * value:
                    wrong.append((value, got))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not wrong and not overlaps
        assert sum(sizes) == sum(occupancies) == threads_n * rounds
        assert max(sizes) <= cap
        assert batcher.pending_count() == 0

"""No answer computed from a superseded model or gate is served as fresh.

The serving estimate cache cannot see which models an answer came from;
the ByteCard facade tells it which tables changed, and the order matters:

* a fallback-gate flip must invalidate the table's cached answers;
* a refresh must install the rebuilt estimators *before* it invalidates,
  or a request landing in between stores the old model's answer under a
  fresh stamp.

Served answers are checked against the facade's direct answer, with
batching off so both sides sweep at width one and agree bit for bit.
"""

import threading
import time

import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.core.serialization import deserialize_bn, serialize_bn
from repro.serving import ServingConfig
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate

REPUTATION = TablePredicate("users", "Reputation", PredicateOp.GE, 10.0)
SCORE = TablePredicate("posts", "Score", PredicateOp.LE, 40.0)
USERS = CardQuery(tables=("users",), predicates=(REPUTATION,))
POSTS = CardQuery(tables=("posts",), predicates=(SCORE,))
JOIN = CardQuery(
    tables=("users", "posts"),
    joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
    predicates=(REPUTATION, SCORE),
)
SERVING = ServingConfig(deadline_ms=None, enable_batching=False)


@pytest.fixture(scope="module")
def bytecard(stats):
    config = ByteCardConfig(
        training_sample_rows=4000, rbx_corpus_size=200, rbx_epochs=3
    )
    return ByteCard.build(stats, config=config, run_monitor=False)


def republish_different(bytecard: ByteCard, table: str) -> None:
    """Publish a different, still healthy BN for ``table``: its CPDs
    blended a tenth of the way toward uniform."""
    model = deserialize_bn(bytecard.registry.latest("bn", table).blob)
    model.cpds = [0.9 * cpd + 0.1 / cpd.shape[-1] for cpd in model.cpds]
    bytecard.registry.publish("bn", table, serialize_bn(model))


def test_gate_flip_is_never_served_from_cache(bytecard):
    with bytecard.serve(SERVING) as service:
        learned = service.estimate_count_detail(USERS)
        assert service.estimate_count_detail(USERS).source == "cache"
        bytecard.set_fallback("users", True)
        try:
            gated = service.estimate_count_detail(USERS)
            assert gated.value == bytecard.estimate_count(USERS)
            assert gated.value != learned.value
            assert gated.source != "cache"
        finally:
            bytecard.set_fallback("users", False)
        lifted = service.estimate_count_detail(USERS)
        assert lifted.value == learned.value and lifted.source != "cache"


def test_gate_writes_notify_only_on_a_flip(bytecard):
    heard = []
    bytecard.add_invalidation_listener(heard.append)
    bytecard.set_fallback("badges", False)  # already open: no flip
    bytecard.set_fallback("badges", True)
    bytecard.set_fallback("badges", True)
    bytecard.set_fallback("badges", False)
    assert heard == [frozenset({"badges"})] * 2
    assert "badges" not in bytecard.fallback_tables


@pytest.mark.parametrize("callback", ["loader", "facade"])
def test_refresh_swaps_before_it_invalidates(bytecard, callback):
    with bytecard.serve(SERVING) as service:
        before = service.estimate_count(USERS)
        inside = []

        def listener(_event) -> None:
            if not inside:  # once: listeners cannot be removed
                inside.append(service.estimate_count_detail(USERS))

        if callback == "loader":
            bytecard.loader.add_refresh_listener(listener)
        else:
            bytecard.add_invalidation_listener(listener)
        republish_different(bytecard, "users")
        bytecard.refresh()
        direct = bytecard.estimate_count(USERS)
        assert inside and direct != before  # the swap changed the answer
        assert service.estimate_count(USERS) == direct


def test_readers_never_observe_a_superseded_answer(bytecard):
    """Readers hammer the service while a writer alternates republish +
    refresh with gate flips; every answer to a request issued after a
    writer step returned (and before the next one began) must equal the
    facade's direct answer for that state."""
    requests = [
        ("count", USERS),
        ("count", POSTS),
        ("count", JOIN),
        ("selectivity", USERS),
        ("selectivity", POSTS),
    ]

    def direct() -> dict:
        return {
            (task, query.tables): (
                bytecard.estimate_count(query)
                if task == "count"
                else bytecard.selectivity(query)
            )
            for task, query in requests
        }

    # steps begun / finished, and the direct answers of the finished state
    state = {"begun": 0, "done": 0, "expected": direct()}
    mismatches: list[tuple] = []
    checked = [0]
    errors: list[BaseException] = []
    stop = threading.Event()

    with bytecard.serve(SERVING) as service:

        def reader(offset: int) -> None:
            try:
                index = offset
                while not stop.is_set():
                    task, query = requests[index % len(requests)]
                    index += 1
                    done, expected = state["done"], state["expected"]
                    if state["begun"] != done:
                        continue  # a writer step is in flight
                    if task == "count":
                        value = service.estimate_count(query)
                    else:
                        value = service.selectivity(query)
                    if state["begun"] != done:
                        continue  # the next step began mid-request
                    checked[0] += 1
                    if value != expected[(task, query.tables)]:
                        mismatches.append((done, task, query.tables, value))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        try:
            for step in range(6):
                time.sleep(0.03)
                state["begun"] += 1
                if step % 2 == 0:
                    republish_different(bytecard, "users")
                    bytecard.refresh()
                else:
                    bytecard.set_fallback("posts", step % 4 == 1)
                state["expected"] = direct()
                state["done"] += 1
            time.sleep(0.03)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            bytecard.set_fallback("posts", False)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert checked[0] > 0
    assert not mismatches, mismatches[:5]

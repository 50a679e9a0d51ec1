"""No answer computed from a superseded model or gate is served as fresh.

A served request reads the facade's model snapshot once and keys its
cached answer by that snapshot's tokens, so:

* a fallback-gate flip renews the table's token, and a no-op gate write
  keeps the snapshot (and its cache hits);
* a request landing anywhere inside a refresh stores the old model's
  answer under the old snapshot's key, which no later request asks for;
* an NDV calibration reaches served answers once the Monitor keeps it, and
  a calibration it rejects never reaches the registry.

Served answers are checked against the facade's direct answer: both sweep
at width one, so they agree bit for bit.
"""

import threading
import time
from dataclasses import replace

import pytest

import repro.core.modelforge
from repro.core import ByteCard, ByteCardConfig
from repro.core.serialization import deserialize_bn, serialize_bn
from repro.serving import ServingConfig
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)

REPUTATION = TablePredicate("users", "Reputation", PredicateOp.GE, 10.0)
SCORE = TablePredicate("posts", "Score", PredicateOp.LE, 40.0)
USERS = CardQuery(tables=("users",), predicates=(REPUTATION,))
POSTS = CardQuery(tables=("posts",), predicates=(SCORE,))
JOIN = CardQuery(
    tables=("users", "posts"),
    joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
    predicates=(REPUTATION, SCORE),
)
BADGES = CardQuery(tables=("badges",))
SESSIONS = CardQuery(
    tables=("impressions",),
    agg=AggSpec(AggKind.COUNT_DISTINCT, "impressions", "session_id"),
)
SERVING = ServingConfig(deadline_ms=None)
CONFIG = ByteCardConfig(training_sample_rows=4000, rbx_corpus_size=200, rbx_epochs=3)


@pytest.fixture(scope="module")
def bytecard(stats):
    return ByteCard.build(stats, config=CONFIG, run_monitor=False)


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
    """Only a flip publishes a snapshot, and each flip a never-used token."""
    with bytecard.serve(SERVING) as service:
        learned = service.estimate_count_detail(BADGES)
        start = bytecard.snapshot()
        tokens = [start.tokens["badges"]]
        bytecard.set_fallback("badges", False)  # already open: no flip
        assert bytecard.snapshot() is start
        assert service.estimate_count_detail(BADGES).source == "cache"
        for fallback in (True, True, False):
            before = bytecard.snapshot()
            bytecard.set_fallback("badges", fallback)
            if bytecard.snapshot() is not before:
                tokens.append(bytecard.snapshot().tokens["badges"])
        assert len(tokens) == len(set(tokens)) == 3
        assert "badges" not in bytecard.fallback_tables
        lifted = service.estimate_count_detail(BADGES)
        assert lifted.value == learned.value and lifted.source != "cache"


@pytest.mark.parametrize("callback", ["loader", "facade"])
def test_refresh_swaps_before_it_invalidates(bytecard, callback, monkeypatch):
    with bytecard.serve(SERVING) as service:
        before = service.estimate_count(USERS)
        inside = []

        def listener(_event) -> None:
            if not inside:  # once: listeners cannot be removed
                inside.append(service.estimate_count_detail(USERS))

        if callback == "loader":
            # The request lands after the loader has swapped the new model
            # in and before the facade rebuilds its estimators on it.
            loader_refresh = bytecard.loader.refresh

            def refresh_then_request():
                report = loader_refresh()
                listener(report)
                return report

            monkeypatch.setattr(bytecard.loader, "refresh", refresh_then_request)
        else:
            # The request lands after the facade has built the new snapshot's
            # estimators and before it swaps the snapshot in.
            assemble = bytecard._assemble_rbx

            def assemble_then_request(current):
                rbx = assemble(current)
                listener(rbx)
                return rbx

            monkeypatch.setattr(bytecard, "_assemble_rbx", assemble_then_request)
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


def test_refresh_keeps_untouched_tables_cached(bytecard):
    """A refresh renews only the reloaded tables' tokens."""
    with bytecard.serve(SERVING) as service:
        service.estimate_count(USERS)
        posts = service.estimate_count_detail(POSTS)
        republish_different(bytecard, "users")
        bytecard.refresh()
        assert service.estimate_count_detail(USERS).source == "model"
        kept = service.estimate_count_detail(POSTS)
        assert kept.source == "cache" and kept.value == posts.value


def test_table_order_shares_one_cached_answer(bytecard):
    """Tokens are keyed in table-name order, like the fingerprint beside
    them: the same join spelled in another table order is a cache hit."""
    reordered = CardQuery(
        tables=("posts", "users"), joins=JOIN.joins, predicates=JOIN.predicates
    )
    with bytecard.serve(SERVING) as service:
        served = service.estimate_count_detail(JOIN)
        again = service.estimate_count_detail(reordered)
        assert again.source == "cache" and again.value == served.value


def test_noop_refresh_keeps_the_snapshot_and_cache_hits(bytecard):
    with bytecard.serve(SERVING) as service:
        service.estimate_count(JOIN)
        before = bytecard.snapshot()
        bytecard.refresh()  # nothing new was published
        assert bytecard.snapshot() is before
        assert service.estimate_count_detail(JOIN).source == "cache"


@pytest.fixture
def aeolus_card(aeolus):
    return ByteCard.build(aeolus, config=CONFIG, run_monitor=False)


def test_ndv_calibration_reaches_served_answers(aeolus_card):
    with aeolus_card.serve(SERVING) as service:
        universal = service.estimate_ndv(SESSIONS)
        assert service.estimate_ndv_detail(SESSIONS).source == "cache"
        aeolus_card._calibrate_column("impressions", "session_id")
        assert aeolus_card.status().calibrated_columns == [
            ("impressions", "session_id")
        ]
        calibrated = aeolus_card.estimate_ndv(SESSIONS)
        assert calibrated != universal  # the calibration moved the answer
        served = service.estimate_ndv_detail(SESSIONS)
        assert served.source != "cache" and served.value == calibrated


def test_rejected_calibration_never_comes_back(aeolus, monkeypatch):
    """Weights the Monitor rejects are not published, so no refresh can
    install them."""
    config = replace(CONFIG, ndv_finetune_trigger=1.0)
    aeolus_card = ByteCard.build(aeolus, config=config, run_monitor=False)

    def no_better(model, samples, seed=10):
        worse = model.clone()
        worse.biases[-1] += 20.0  # every estimate at its upper clamp
        return worse

    monkeypatch.setattr(repro.core.modelforge, "fine_tune_rbx", no_better)
    aeolus_card._calibrate_column("impressions", "session_id")
    assert aeolus_card.status().calibrated_columns == []
    aeolus_card.refresh()
    assert aeolus_card.status().calibrated_columns == []
    assert aeolus_card.registry.latest("rbx", "impressions.session_id") is None

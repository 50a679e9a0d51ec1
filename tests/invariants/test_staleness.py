"""No answer computed from a superseded model or gate is served as fresh.

A served request reads the facade's model snapshot once and keys its
cached answer by that snapshot's tokens, so:

* a fallback-gate flip renews the table's token, and a no-op gate write
  keeps the snapshot (and its cache hits);
* a request landing anywhere inside a refresh stores the old model's
  answer under the old snapshot's key, which no later request asks for;
* an NDV calibration reaches served answers (COUNT DISTINCT and group
  NDV alike) once the Monitor keeps it, and a calibration it rejects never
  reaches the registry;
* COUNT and NDV answers, which scale by the live row count, are keyed by
  the catalog's table state too, so an append is a miss;
* a SQL text is served from the catalog's bound-query memo only while
  every table it names keeps the registration token and the mutation
  generation it was bound at;
* an optimizer serves a memoized plan only while the tables it touches
  keep their state and its estimators keep their tokens, never stores a
  plan that consulted a fallback, memoizes a fleet's plans only until a
  worker restart, and hands every caller a plan of its own.

Served answers are checked against the facade's direct answer: both sweep
at width one, so they agree bit for bit.
"""

import copy
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import repro.core.modelforge
from repro.core import ByteCard, ByteCardConfig
from repro.core.serialization import deserialize_bn, serialize_bn
from repro.datasets import make_aeolus
from repro.engine import EngineSession
from repro.engine.optimizer import Optimizer, PhysicalPlan
from repro.engine.readers import ReaderKind
from repro.engine.session import EstimatorSuite
from repro.errors import BindError, EstimationError, ParseError
from repro.estimators.base import CountEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.fleet import FleetConfig
from repro.serving import EstimationService, ServingConfig
from repro.sql import Binder, bind_sql, parser
from repro.sql.parser import parse_sql
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from tests.fleet.test_fleet_faults import RESTART_WAIT_S, wait_for

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
SESSION_GROUPS = CardQuery(
    tables=("impressions",), group_by=(("impressions", "session_id"),)
)
HOURLY = CardQuery(
    tables=("impressions", "ads"),
    joins=(JoinCondition("impressions", "ad_id", "ads", "ad_id"),),
    predicates=(TablePredicate("impressions", "hour", PredicateOp.LT, 12.0),),
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


def test_group_ndv_calibration_reaches_served_answers(aeolus_card):
    """Group NDV is cached under the RBX token too: a kept calibration of
    the key column is a miss that computes from the new snapshot."""
    with aeolus_card.serve(SERVING) as service:
        universal = service.group_ndv(SESSION_GROUPS)
        assert universal == aeolus_card.group_ndv(SESSION_GROUPS)
        served = service.group_ndv_detail(SESSION_GROUPS)
        assert served.source == "cache" and served.value == universal
        aeolus_card._calibrate_column("impressions", "session_id")
        calibrated = aeolus_card.group_ndv(SESSION_GROUPS)
        assert calibrated != universal
        served = service.group_ndv_detail(SESSION_GROUPS)
        assert served.source == "model" and served.value == calibrated


def double(table: Table) -> None:
    """Append a copy of every row of ``table``."""

    def copied(column: str):
        col = table.column(column)
        if col.dictionary is None:
            return col.values.copy()
        return [col.dictionary[int(code)] for code in col.values]

    table.append_rows({column: copied(column) for column in table.column_names()})


def test_ndv_answers_follow_appends():
    """NDV and group NDV scale by the live row count: an append between
    two identical requests is a miss that matches the direct answer."""
    bundle = make_aeolus(scale=0.05)  # private: the append mutates it
    card = ByteCard.build(bundle, config=CONFIG, run_monitor=False)
    with card.serve(SERVING) as service:
        before = (service.estimate_ndv(SESSIONS), service.group_ndv(SESSION_GROUPS))
        double(bundle.catalog.table("impressions"))
        served = (
            service.estimate_ndv_detail(SESSIONS),
            service.group_ndv_detail(SESSION_GROUPS),
        )
        direct = (card.estimate_ndv(SESSIONS), card.group_ndv(SESSION_GROUPS))
    assert [answer.source for answer in served] == ["model", "model"]
    assert tuple(answer.value for answer in served) == direct
    assert direct != before


def test_join_count_follows_appends():
    """FactorJoin scales a join by the live row counts: an append between
    two identical requests is a miss that matches the direct answer."""
    bundle = make_aeolus(scale=0.05)  # private: the append mutates it
    card = ByteCard.build(bundle, config=CONFIG, run_monitor=False)
    with card.serve(SERVING) as service:
        before = service.estimate_count(HOURLY)
        double(bundle.catalog.table("impressions"))
        served = service.estimate_count_detail(HOURLY)
    direct = card.estimate_count(HOURLY)
    assert served.source == "model" and served.value == direct
    assert direct != before


def test_single_table_count_follows_appends():
    """A single-table COUNT is the BN's selectivity times the live row
    count, as a join's is: doubling a table doubles it, served or direct."""
    bundle = make_aeolus(scale=0.05)  # private: the append mutates it
    card = ByteCard.build(bundle, config=CONFIG, run_monitor=False)
    everything = CardQuery(tables=("impressions",))
    morning = CardQuery(tables=("impressions",), predicates=HOURLY.predicates)
    queries = (everything, morning)
    with card.serve(SERVING) as service:
        before = [service.estimate_count(query) for query in queries]
        double(bundle.catalog.table("impressions"))
        served = [service.estimate_count_detail(query) for query in queries]
    direct = [card.estimate_count(query) for query in queries]
    assert before[0] == len(bundle.catalog.table("impressions")) / 2
    assert [answer.source for answer in served] == ["model", "model"]
    assert [answer.value for answer in served] == direct
    assert direct == [2 * value for value in before]


# ---------------------------------------------------------------------------
# The bound-query memo
# ---------------------------------------------------------------------------
LYON = "SELECT COUNT(*) FROM shops WHERE shops.city = 'Lyon'"


def shops(*cities: str) -> Table:
    return Table(
        "shops",
        [
            Column.from_strings("city", cities),
            Column.from_ints("size", range(len(cities))),
        ],
    )


def catalog_of(table: Table) -> Catalog:
    catalog = Catalog()
    catalog.register(table)
    return catalog


def lyon_code(query: CardQuery) -> float:
    return query.predicates[0].value


def fresh_bind(sql: str, catalog: Catalog, name: str = "") -> CardQuery:
    return Binder(catalog).bind(parse_sql(sql), name=name)


@pytest.fixture
def parses(monkeypatch):
    """The texts ``bind_sql`` actually parses, i.e. its memo misses."""
    texts: list[str] = []

    def counting(sql: str):
        texts.append(sql)
        return parse_sql(sql)

    monkeypatch.setattr(parser, "parse_sql", counting)
    return texts


def test_memo_hit_returns_the_bound_query(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    first = bind_sql(LYON, catalog)
    assert bind_sql(LYON, catalog) is first
    assert parses == [LYON]
    assert first == fresh_bind(LYON, catalog)


def test_append_of_a_new_string_rebinds_with_the_new_code(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    before = bind_sql(LYON, catalog)
    # "Berlin" sorts first: the dictionary rebuild moves Lyon's code 0 -> 1.
    catalog.table("shops").append_rows({"city": ["Berlin"], "size": [7]})
    after = bind_sql(LYON, catalog)
    assert (lyon_code(before), lyon_code(after)) == (0.0, 1.0)
    assert after == fresh_bind(LYON, catalog)
    assert len(parses) == 2
    assert bind_sql(LYON, catalog) is after


def test_delete_rebinds(parses):
    catalog = catalog_of(shops("Lyon", "Paris", "Paris"))
    before = bind_sql(LYON, catalog)
    paris = TablePredicate("shops", "city", PredicateOp.EQ, 1.0)
    assert catalog.table("shops").delete_where(paris) == 2
    after = bind_sql(LYON, catalog)
    assert after is not before and after == fresh_bind(LYON, catalog)
    assert len(parses) == 2


def test_mutations_that_change_nothing_keep_the_entry(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    first = bind_sql(LYON, catalog)
    table = catalog.table("shops")
    table.append_rows({"city": [], "size": []})
    assert table.delete_where(TablePredicate("shops", "size", PredicateOp.GT, 9.0)) == 0
    assert bind_sql(LYON, catalog) is first and len(parses) == 1


def test_catalog_replace_rebinds_with_the_new_code(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    before = bind_sql(LYON, catalog)
    replacement = shops("Berlin", "Lyon")
    # A fresh table starts at the old one's mutation generation: only the
    # registration token tells them apart.
    assert replacement.mutation_generation == catalog.table("shops").mutation_generation
    catalog.replace(replacement)
    after = bind_sql(LYON, catalog)
    assert (lyon_code(before), lyon_code(after)) == (0.0, 1.0)
    assert len(parses) == 2


def test_a_mutation_of_any_bound_table_rebinds_a_join(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    catalog.register(
        Table("stock", [Column.from_ints("shop", [0, 1]), Column.from_ints("n", [3, 4])])
    )
    sql = (
        "SELECT COUNT(*) FROM shops JOIN stock ON shops.size = stock.shop "
        "WHERE shops.city = 'Lyon'"
    )
    first = bind_sql(sql, catalog)
    catalog.table("stock").append_rows({"shop": [1], "n": [5]})
    assert bind_sql(sql, catalog) is not first
    assert len(parses) == 2


@pytest.mark.parametrize(
    "sql, error",
    [
        ("SELECT COUNT(*) FROM shops WHERE shops.town = 'Lyon'", BindError),
        ("SELECT COUNT(*) FROM depots", BindError),
        ("SELECT COUNT(*) FROM shops WHERE shops.size = ²", ParseError),
    ],
)
def test_a_failing_bind_raises_on_every_call(parses, sql, error):
    catalog = catalog_of(shops("Lyon", "Paris"))
    for _ in range(3):
        with pytest.raises(error):
            bind_sql(sql, catalog)
    assert len(parses) == 3 and len(catalog.bound_queries) == 0


def test_a_text_binds_once_its_table_is_registered(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    sql = "SELECT COUNT(*) FROM depots"
    with pytest.raises(BindError):
        bind_sql(sql, catalog)
    catalog.register(Table("depots", [Column.from_ints("id", [1])]))
    assert bind_sql(sql, catalog).tables == ("depots",)


def test_name_gives_distinct_queries(parses):
    catalog = catalog_of(shops("Lyon", "Paris"))
    named = {name: bind_sql(LYON, catalog, name=name) for name in ("", "a", "b")}
    assert {name: query.name for name, query in named.items()} == {
        "": "",
        "a": "a",
        "b": "b",
    }
    assert bind_sql(LYON, catalog, name="a") is named["a"]
    assert len(parses) == 3


def test_two_catalogs_never_share_an_entry(parses):
    lyon_first = catalog_of(shops("Lyon", "Paris"))
    lyon_second = catalog_of(shops("Berlin", "Lyon"))
    for _ in range(2):
        assert lyon_code(bind_sql(LYON, lyon_first)) == 0.0
        assert lyon_code(bind_sql(LYON, lyon_second)) == 1.0
    assert len(parses) == 2
    assert len(lyon_first.bound_queries) == len(lyon_second.bound_queries) == 1


def test_an_append_landing_mid_bind_is_bound_again(monkeypatch):
    """Table state is read before binding: an append that lands while a
    text binds leaves an entry the next call binds again."""
    catalog = catalog_of(shops("Lyon", "Paris"))
    bind = Binder.bind
    appended = []

    def bind_then_append(self, statement, name=""):
        query = bind(self, statement, name=name)
        if not appended:
            appended.append(True)
            catalog.table("shops").append_rows({"city": ["Berlin"], "size": [7]})
        return query

    monkeypatch.setattr(Binder, "bind", bind_then_append)
    assert lyon_code(bind_sql(LYON, catalog)) == 0.0  # bound before the append
    assert lyon_code(bind_sql(LYON, catalog)) == 1.0


def test_a_pickled_catalog_starts_with_an_empty_memo():
    catalog = catalog_of(shops("Lyon", "Paris"))
    bind_sql(LYON, catalog)
    copy = pickle.loads(pickle.dumps(catalog))
    assert len(copy.bound_queries) == 0
    copy.table("shops").append_rows({"city": ["Berlin"], "size": [7]})
    assert lyon_code(bind_sql(LYON, copy)) == 1.0
    assert lyon_code(bind_sql(LYON, catalog)) == 0.0


def run_threads(target, count: int) -> None:
    """Run ``target(index)`` on ``count`` threads with a short switch
    interval, so the interpreter interleaves them finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_binding_one_text_get_equal_queries():
    catalog = catalog_of(shops("Lyon", "Paris"))
    texts = [LYON, LYON.replace("Lyon", "Paris"), LYON.replace("=", "<>")]
    expected = [fresh_bind(sql, catalog) for sql in texts]
    start = threading.Barrier(4)
    results: list[list[CardQuery]] = [[] for _ in range(4)]
    errors: list[BaseException] = []

    def binder(index: int) -> None:
        try:
            start.wait(timeout=10)
            for round_ in range(100):
                if round_ % 10 == index:
                    catalog.bound_queries.clear()  # make the threads race misses
                results[index].extend(bind_sql(sql, catalog) for sql in texts)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    run_threads(binder, 4)
    assert not errors
    for bound in results:
        assert bound == expected * 100


def test_binds_racing_appends_leave_no_stale_entry():
    """Every append moves Lyon's code; once the writer stops, the memo
    answers with the code of the final dictionary."""
    catalog = catalog_of(shops("Lyon", "Paris"))
    done = threading.Event()
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            if index == 0:
                try:
                    for step in range(40):
                        catalog.table("shops").append_rows(
                            {"city": [f"A{step:02d}"], "size": [step]}
                        )
                finally:
                    done.set()
            else:
                while not done.is_set():
                    bind_sql(LYON, catalog)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    run_threads(worker, 4)
    assert not errors
    assert lyon_code(bind_sql(LYON, catalog)) == 40.0
    assert bind_sql(LYON, catalog) == fresh_bind(LYON, catalog)


# ---------------------------------------------------------------------------
# The plan memo
# ---------------------------------------------------------------------------
def decisions(plan: PhysicalPlan) -> tuple:
    """Everything a plan decided and estimated: no timings, no provenance."""
    return (
        plan.readers,
        plan.column_orders,
        plan.join_order,
        plan.estimated_group_ndv,
        plan.estimation_cost,
        plan.table_selectivities,
        plan.estimated_table_rows,
        plan.join_step_estimates,
    )


def memo_hit(plan: PhysicalPlan) -> bool:
    return list(plan.decision_timings) == ["plan_memo"]


def fresh_plan(card: ByteCard, query: CardQuery) -> PhysicalPlan:
    """What a new optimizer planning straight on the facade plans now."""
    return Optimizer(card, card, catalog=card.catalog).plan(query)


def assert_replanned(plan: PhysicalPlan, fresh: PhysicalPlan) -> None:
    assert not memo_hit(plan)
    assert decisions(plan) == decisions(fresh)


MUTATIONS = {
    "append": lambda catalog: double(catalog.table("impressions")),
    "delete": lambda catalog: catalog.table("impressions").delete_where(
        TablePredicate("impressions", "hour", PredicateOp.GE, 18.0)
    ),
    "replace": lambda catalog: catalog.replace(
        catalog.table("impressions").take(
            np.arange(0, len(catalog.table("impressions")), 2)
        )
    ),
}


@pytest.mark.parametrize("estimator", ["bytecard", "selinger"])
def test_a_mutation_between_two_plans_replans(estimator):
    """An append, a delete or a replace of a touched table moves its state:
    the next identical plan is planned again.  The traditional estimator's
    tokens are empty, so there the table state alone tells the plans
    apart."""
    bundle = make_aeolus(scale=0.05)  # private: the mutations change it
    catalog = bundle.catalog
    if estimator == "bytecard":
        card = ByteCard.build(bundle, config=CONFIG, run_monitor=False)
        service = card.serve(SERVING)
        optimizer = EngineSession(catalog, service=service).optimizer

        def fresh() -> PhysicalPlan:
            return fresh_plan(card, HOURLY)

    else:
        service = None
        selinger = SelingerEstimator(catalog)
        optimizer = Optimizer(selinger, None, catalog=catalog)

        def fresh() -> PhysicalPlan:
            return Optimizer(selinger, None, catalog=catalog).plan(HOURLY)

    try:
        before = optimizer.plan(HOURLY)
        for name, mutate in MUTATIONS.items():
            assert memo_hit(optimizer.plan(HOURLY)), name
            mutate(catalog)
            after = optimizer.plan(HOURLY)
            assert_replanned(after, fresh())
            assert decisions(after) != decisions(before), name
            before = after
    finally:
        if service is not None:
            service.close()


def republish_and_refresh(card: ByteCard) -> None:
    republish_different(card, "users")
    card.refresh()


def gate_users(card: ByteCard) -> None:
    card.set_fallback("users", True)


@pytest.mark.parametrize("change", [republish_and_refresh, gate_users])
def test_a_model_change_between_two_plans_replans(bytecard, change):
    with bytecard.serve(SERVING) as service:
        optimizer = EngineSession(bytecard.catalog, service=service).optimizer
        before = optimizer.plan(JOIN)
        assert memo_hit(optimizer.plan(JOIN))
        try:
            change(bytecard)
            after = optimizer.plan(JOIN)
            fresh = fresh_plan(bytecard, JOIN)
        finally:
            bytecard.set_fallback("users", False)
    assert_replanned(after, fresh)
    assert decisions(after) != decisions(before)


def test_a_kept_calibration_between_two_plans_replans(aeolus_card, aeolus):
    """A GROUP BY plan is keyed by the NDV estimator's tokens too."""
    with aeolus_card.serve(SERVING) as service:
        optimizer = EngineSession(aeolus.catalog, service=service).optimizer
        before = optimizer.plan(SESSION_GROUPS)
        assert memo_hit(optimizer.plan(SESSION_GROUPS))
        aeolus_card._calibrate_column("impressions", "session_id")
        after = optimizer.plan(SESSION_GROUPS)
    assert_replanned(after, fresh_plan(aeolus_card, SESSION_GROUPS))
    assert after.estimated_group_ndv != before.estimated_group_ndv


def test_a_refresh_landing_mid_plan_is_never_served(bytecard, monkeypatch):
    """The key is read before planning: a plan whose selectivities came
    from the old model and whose join sizes came from the new one is
    stored under the old snapshot's tokens, which no later plan asks for."""
    with bytecard.serve(SERVING) as service:
        optimizer = EngineSession(bytecard.catalog, service=service).optimizer
        choose = optimizer._choose_join_order
        refreshed = []

        def refresh_then_choose(query, plan):
            if not refreshed:
                refreshed.append(True)
                republish_and_refresh(bytecard)
            return choose(query, plan)

        monkeypatch.setattr(optimizer, "_choose_join_order", refresh_then_choose)
        mixed = optimizer.plan(JOIN)
        after = optimizer.plan(JOIN)
    fresh = fresh_plan(bytecard, JOIN)
    assert refreshed and decisions(mixed) != decisions(fresh)
    assert_replanned(after, fresh)


class Broken(CountEstimator):
    name = "broken"

    def estimate_count(self, query: CardQuery) -> float:
        raise EstimationError("no model")


class Slow(CountEstimator):
    """Selectivities in time; every COUNT far past any deadline."""

    name = "slow"

    def __init__(self, inner: CountEstimator):
        self.inner = inner

    def selectivity(self, query: CardQuery) -> float:
        return self.inner.selectivity(query)

    def estimate_count(self, query: CardQuery) -> float:
        time.sleep(0.2)
        return self.inner.estimate_count(query)


@pytest.mark.parametrize("failure", ["dead-model", "deadline"])
def test_a_degraded_plan_is_never_stored(stats, failure):
    selinger = SelingerEstimator(stats.catalog)
    if failure == "dead-model":
        estimator, config = Broken(), SERVING
    else:
        estimator, config = Slow(selinger), ServingConfig(deadline_ms=1.0)
    with EstimationService(estimator, selinger, config=config) as service:
        optimizer = EngineSession(stats.catalog, service=service).optimizer
        first = optimizer.plan(JOIN)
        second = optimizer.plan(JOIN)
    assert first.degraded
    assert not memo_hit(second)
    if failure == "dead-model":
        assert len(optimizer.memo) == 0


def test_editing_a_returned_plan_never_reaches_the_next_hit(bytecard):
    with bytecard.serve(SERVING) as service:
        optimizer = EngineSession(bytecard.catalog, service=service).optimizer
        first = optimizer.plan(JOIN)
        expected = copy.deepcopy((decisions(first), first.decision_provenance))
        for plan in (first, optimizer.plan(JOIN)):
            for table in plan.readers:
                plan.readers[table] = ReaderKind.MULTI_STAGE
                plan.column_orders.setdefault(table, []).append("edited")
                plan.estimated_table_rows[table] = -1.0
            plan.join_order.clear()
            plan.join_step_estimates.append(-1.0)
            for sources in plan.decision_provenance.values():
                sources["edited"] = 1
            plan.estimation_cost = -1.0
        hit = optimizer.plan(JOIN)
    assert memo_hit(hit)
    assert (decisions(hit), hit.decision_provenance) == expected


def fleet_of(card: ByteCard, store_dir, **overrides):
    """A one-worker fleet whose supervisor notices a death within ~0.1 s
    and whose router never hedges a slow answer on a loaded host."""
    config = FleetConfig(
        n_workers=1,
        hedge_timeout_ms=5000.0,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=0.5,
        **overrides,
    )
    return card.fleet(store_dir=store_dir, serving_config=SERVING, fleet_config=config)


def fleet_optimizer(card: ByteCard, fleet) -> Optimizer:
    suite = EstimatorSuite("fleet", fleet, fleet)
    return EngineSession(card.catalog, suite=suite).optimizer


def kill_worker(fleet) -> int:
    """SIGKILL worker 0 and return its pid."""
    pid = fleet._client(0).ready_info["pid"]
    os.kill(pid, signal.SIGKILL)
    return pid


def restarted(fleet, old_pid: int) -> bool:
    client = fleet._client(0)
    return (
        client is not None
        and client.alive
        and client.ready_info is not None
        and client.ready_info["pid"] != old_pid
    )


def test_fleet_plans_are_memoized_per_incarnation(bytecard, tmp_path):
    """A fleet worker loads its models once, at spawn: until a restart, a
    repeat is a memo hit with the first plan's decisions."""
    with fleet_of(bytecard, tmp_path) as fleet:
        optimizer = fleet_optimizer(bytecard, fleet)
        plans = [optimizer.plan(JOIN) for _ in range(2)]
    assert not memo_hit(plans[0]) and memo_hit(plans[1])
    assert len(optimizer.memo) == 1
    assert decisions(plans[0]) == decisions(plans[1])


def test_a_worker_restart_between_two_plans_replans(bytecard, tmp_path):
    """A restarted worker re-reads the store: the next identical plan is
    planned again, against the new worker."""
    with fleet_of(bytecard, tmp_path) as fleet:
        optimizer = fleet_optimizer(bytecard, fleet)
        optimizer.plan(JOIN)
        assert memo_hit(optimizer.plan(JOIN))
        old_pid = kill_worker(fleet)
        assert wait_for(lambda: restarted(fleet, old_pid), RESTART_WAIT_S)
        after = optimizer.plan(JOIN)
        fresh = fleet_optimizer(bytecard, fleet).plan(JOIN)
    assert not after.degraded
    assert_replanned(after, fresh)


def test_failover_plans_are_never_stored(bytecard, tmp_path):
    """With no restart budget a dead worker's shard fails over for good,
    and a plan that failed over is planned again every time."""
    with fleet_of(bytecard, tmp_path, max_restarts=0) as fleet:
        client = fleet._client(0)
        kill_worker(fleet)
        assert wait_for(lambda: not client.alive, RESTART_WAIT_S)
        optimizer = fleet_optimizer(bytecard, fleet)
        plans = [optimizer.plan(JOIN) for _ in range(2)]
        assert fleet.stats().failovers >= 2
    assert all(plan.degraded for plan in plans)
    assert not any(memo_hit(plan) for plan in plans)
    assert len(optimizer.memo) == 0


class InstallProbe(dict):
    """A router's client table that records the fleet's cache key at the
    moment each client is installed, before ``_client()`` can return it."""

    def __init__(self, fleet):
        super().__init__(fleet._clients)
        self.fleet = fleet
        self.keys = []

    def __setitem__(self, worker_id, client) -> None:
        self.keys.append(self.fleet.cache_key("count", JOIN))
        super().__setitem__(worker_id, client)


def test_the_incarnation_moves_before_a_restarted_worker_is_visible(
    bytecard, tmp_path
):
    with fleet_of(bytecard, tmp_path) as fleet:
        before = fleet.cache_key("count", JOIN)
        with fleet._clients_lock:
            probe = fleet._clients = InstallProbe(fleet)
        old_pid = kill_worker(fleet)
        assert wait_for(lambda: restarted(fleet, old_pid), RESTART_WAIT_S)
        after = fleet.cache_key("count", JOIN)
    assert after != before
    assert probe.keys == [after]
    assert fleet.cache_key("group_ndv", JOIN) == after


class Tokenless(SelingerEstimator):
    """An estimator whose answers may change with no token to name them."""

    def cache_key(self, task: str, query: CardQuery) -> None:
        return None


def test_a_tokenless_estimator_is_never_cached(stats):
    selinger = SelingerEstimator(stats.catalog)
    with EstimationService(Tokenless(stats.catalog), selinger, config=SERVING) as service:
        optimizer = EngineSession(stats.catalog, service=service).optimizer
        served = [service.estimate_count_detail(USERS) for _ in range(2)]
        served += [service.selectivity_detail(USERS) for _ in range(2)]
        plans = [optimizer.plan(JOIN) for _ in range(2)]
        assert [answer.source for answer in served] == ["model"] * 4
        assert len(service.cache) == 0
    assert not any(memo_hit(plan) for plan in plans)
    assert len(optimizer.memo) == 0


def test_threads_planning_one_query_get_equal_plans(bytecard):
    with bytecard.serve(SERVING) as service:
        optimizer = EngineSession(bytecard.catalog, service=service).optimizer
        expected = decisions(fresh_plan(bytecard, JOIN))
        start = threading.Barrier(4)
        results: list[list[tuple]] = [[] for _ in range(4)]
        errors: list[BaseException] = []

        def planner(index: int) -> None:
            try:
                start.wait(timeout=10)
                for round_ in range(40):
                    if round_ % 10 == index:
                        optimizer.memo.clear()  # make the threads race misses
                    results[index].append(decisions(optimizer.plan(JOIN)))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        run_threads(planner, 4)
    assert not errors
    for planned in results:
        assert planned == [expected] * 40

"""Executor-side feedback capture."""

import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.datasets import make_aeolus
from repro.engine import EngineConfig, EngineSession, EstimatorSuite
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator
from repro.feedback import FeedbackLog
from repro.serving import ServingConfig
from repro.sql.query import AggKind, AggSpec, CardQuery, PredicateOp, TablePredicate

MORNING = CardQuery(
    tables=("impressions",),
    predicates=(TablePredicate("impressions", "hour", PredicateOp.LT, 12.0),),
    name="morning",
)
#: task -> (a query of the task on ``impressions``, the service's method)
SERVED_TASKS = {
    "count": (MORNING, "estimate_count_detail"),
    "selectivity": (MORNING, "selectivity_detail"),
    "ndv": (
        CardQuery(
            tables=("impressions",),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "impressions", "hour"),
        ),
        "estimate_ndv_detail",
    ),
    "group_ndv": (
        CardQuery(tables=("impressions",), group_by=(("impressions", "hour"),)),
        "group_ndv_detail",
    ),
}


@pytest.fixture(scope="module")
def suite(imdb):
    return EstimatorSuite(
        "sketch",
        SelingerEstimator(imdb.catalog),
        SketchNdvEstimator(imdb.catalog),
    )


def _session(imdb, suite):
    config = EngineConfig(enable_feedback=True)
    return EngineSession(imdb.catalog, suite=suite, config=config)


def _single_table_query():
    return CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.GE, 0.0),
        ),
        name="feedback-scan",
    )


def _join_query(imdb_workload, min_joins=1):
    for query in imdb_workload.queries:
        if len(query.joins) >= min_joins:
            return query
    pytest.skip(f"workload has no query with >= {min_joins} joins")


class TestScanCapture:
    def test_scan_actuals_are_recorded(self, imdb, suite):
        session = _session(imdb, suite)
        query = _single_table_query()
        result = session.run(query)
        records = session.feedback.records_for("title")
        assert len(records) == 1
        record = records[0]
        assert (record.kind, record.fingerprint) == ("scan", "scan:feedback-scan:title")
        assert record.actual == float(result.scans["title"].row_indices.size)
        plan = session.optimizer.plan(query)
        assert record.estimated == plan.estimated_table_rows["title"] > 0

    def test_a_memo_hit_records_the_plans_estimate_again(self, imdb, suite):
        session = _session(imdb, suite)
        query = _single_table_query()
        session.run(query)
        session.run(query)
        plan = session.optimizer.plan(query)
        assert list(plan.decision_timings) == ["plan_memo"]
        records = session.feedback.records_for("title")
        assert [r.estimated for r in records] == [
            plan.estimated_table_rows["title"]
        ] * 2

    def test_disabled_by_default(self, imdb, suite):
        session = EngineSession(imdb.catalog, suite=suite)
        session.run(_single_table_query())
        assert session.feedback is None


class TestJoinCapture:
    def test_join_steps_are_recorded(self, imdb, suite, imdb_workload):
        session = _session(imdb, suite)
        query = _join_query(imdb_workload, min_joins=2)
        session.run(query)
        joins = [r for r in session.feedback.snapshot() if r.kind == "join"]
        assert len(joins) == len(query.joins)
        # Scopes grow along the prefix; the last covers every table.
        assert set(joins[-1].table_scope) == set(query.tables)
        for record in joins:
            assert record.actual >= 0

    def test_join_steps_record_the_plans_step_estimates(
        self, imdb, suite, imdb_workload
    ):
        """The first run plans, the second is a plan-memo hit; both record
        each step's estimate from the plan they execute, in step order."""
        session = _session(imdb, suite)
        query = _join_query(imdb_workload, min_joins=2)
        session.run(query)
        session.run(query)
        plan = session.optimizer.plan(query)
        joins = [r.estimated for r in session.feedback.snapshot() if r.kind == "join"]
        assert joins == list(plan.join_step_estimates) * 2

    def test_results_identical_with_and_without_capture(
        self, imdb, suite, imdb_workload
    ):
        query = _join_query(imdb_workload, min_joins=2)
        plain = EngineSession(imdb.catalog, suite=suite).run(query)
        captured = _session(imdb, suite).run(query)
        assert captured.result_rows == plain.result_rows
        assert captured.aggregate_value == plain.aggregate_value
        assert captured.blocks_read == plain.blocks_read


def _double(table) -> None:
    """Append a copy of every row of ``table``."""
    table.append_rows(
        {name: table.column(name).values.copy() for name in table.column_names()}
    )


def _bytecard():
    bundle = make_aeolus(scale=0.05)  # private: a test may mutate it
    config = ByteCardConfig(
        training_sample_rows=4000, rbx_corpus_size=200, rbx_epochs=3
    )
    return ByteCard.build(bundle, config=config, run_monitor=False)


class TestServedSessions:
    def test_a_session_over_a_served_bytecard_records_into_its_log(self):
        card = _bytecard()
        log = card.enable_feedback()
        with card.serve(ServingConfig(deadline_ms=None)) as service:
            session = EngineSession(
                card.bundle.catalog,
                service=service,
                config=EngineConfig(enable_feedback=True),
            )
            session.run(MORNING)
        assert session.feedback is log
        assert [r.kind for r in log.records_for("impressions")] == ["scan"]

    def test_each_scan_records_the_estimate_its_plan_used(self, monkeypatch):
        """The soak driver's shape: a served COUNT, a run, the same served
        COUNT, a plan-memo-hit run.  A gated table's COUNT reads the
        traditional estimator's build-time row count, so after an append
        it differs from the plan's selectivity times the live rows; each
        record must carry the plan's figure."""
        card = _bytecard()
        log = card.enable_feedback()
        card.set_fallback("impressions", True)
        _double(card.bundle.catalog.table("impressions"))
        with card.serve(ServingConfig(deadline_ms=None)) as service:
            session = EngineSession(
                card.bundle.catalog,
                service=service,
                config=EngineConfig(enable_feedback=True),
            )
            plan, plans = session.optimizer.plan, []
            monkeypatch.setattr(
                session.optimizer, "plan", lambda q: plans.append(plan(q)) or plans[-1]
            )
            served = []
            for _ in range(2):
                served.append(service.estimate_count(MORNING))
                session.run(MORNING)
        assert list(plans[1].decision_timings) == ["plan_memo"]
        estimates = [p.estimated_table_rows["impressions"] for p in plans]
        assert served[1] != estimates[1]
        records = log.records_for("impressions")
        assert [r.estimated for r in records] == estimates


class TestSessionLog:
    """Where an :class:`EngineSession` with feedback on records."""

    def _enabled(self, imdb, suite, **kwargs):
        config = EngineConfig(enable_feedback=True)
        return EngineSession(imdb.catalog, suite=suite, config=config, **kwargs)

    def _owning_suite(self, imdb, log):
        estimator = SelingerEstimator(imdb.catalog)
        estimator.feedback_log = log
        return EstimatorSuite("owned", estimator)

    def test_a_passed_log_wins_over_the_estimators(self, imdb):
        owned, passed = FeedbackLog(capacity=16), FeedbackLog(capacity=16)
        suite = self._owning_suite(imdb, owned)
        session = self._enabled(imdb, suite, feedback=passed)
        session.run(_single_table_query())
        assert session.feedback is passed
        assert (len(passed), len(owned)) == (1, 0)

    def test_the_estimators_log_is_inherited(self, imdb):
        owned = FeedbackLog(capacity=16)
        session = self._enabled(imdb, self._owning_suite(imdb, owned))
        session.run(_single_table_query())
        assert session.feedback is owned
        assert [r.kind for r in owned.records_for("title")] == ["scan"]

    def test_a_private_log_is_created_per_session(self, imdb, suite):
        first, second = self._enabled(imdb, suite), self._enabled(imdb, suite)
        assert isinstance(first.feedback, FeedbackLog)
        assert first.feedback is not second.feedback
        first.run(_single_table_query())
        assert (len(first.feedback), len(second.feedback)) == (1, 0)

    def test_a_passed_log_records_nothing_with_feedback_off(self, imdb, suite):
        log = FeedbackLog(capacity=16)
        session = EngineSession(imdb.catalog, suite=suite, feedback=log)
        session.run(_single_table_query())
        assert session.feedback is log
        assert len(log) == 0


@pytest.fixture(scope="module")
def served_card():
    card = _bytecard()
    card.enable_feedback()
    return card


@pytest.mark.parametrize("task", sorted(SERVED_TASKS))
def test_serving_a_task_writes_no_feedback(served_card, task):
    """The executor is the one writer: serving any of the four tasks adds
    nothing to the log, and the run that follows adds its one scan."""
    log = served_card.feedback_log
    query, method = SERVED_TASKS[task]
    before = log.snapshot()
    with served_card.serve(ServingConfig(deadline_ms=None)) as service:
        getattr(service, method)(query)
        assert log.snapshot() == before
        session = EngineSession(
            served_card.bundle.catalog,
            service=service,
            config=EngineConfig(enable_feedback=True),
        )
        session.run(MORNING)
    added = log.snapshot()[len(before) :]
    assert [(r.kind, r.table_scope) for r in added] == [("scan", ("impressions",))]

"""Executor-side feedback capture."""

import pytest

from repro.engine import EngineConfig, EngineSession, EstimatorSuite
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator
from repro.feedback import FeedbackLog
from repro.serving.fingerprint import query_fingerprint
from repro.sql.query import CardQuery, PredicateOp, TablePredicate


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
        result = session.run(_single_table_query())
        records = session.feedback.records_for("title")
        assert len(records) == 1
        record = records[0]
        assert record.kind == "scan"
        assert record.source == "plan"
        assert record.actual == float(result.scans["title"].row_indices.size)
        assert record.estimated > 0

    def test_pending_served_estimate_wins_over_plan(self, imdb, suite):
        feedback = FeedbackLog(capacity=64)
        config = EngineConfig(enable_feedback=True)
        session = EngineSession(
            imdb.catalog, suite=suite, config=config, feedback=feedback
        )
        query = _single_table_query()
        fingerprint = query_fingerprint(query.single_table_subquery("title"))
        feedback.note_estimate(fingerprint, ("title",), 12345.0, source="cache")
        session.run(query)
        (record,) = feedback.records_for("title")
        assert record.source == "cache"
        assert record.estimated == 12345.0
        assert feedback.pending_count == 0

    def test_fraction_pending_scaled_by_table_rows(self, imdb, suite):
        feedback = FeedbackLog(capacity=64)
        config = EngineConfig(enable_feedback=True)
        session = EngineSession(
            imdb.catalog, suite=suite, config=config, feedback=feedback
        )
        query = _single_table_query()
        fingerprint = query_fingerprint(query.single_table_subquery("title"))
        feedback.note_estimate(
            fingerprint, ("title",), 0.5, source="model", unit="fraction"
        )
        session.run(query)
        (record,) = feedback.records_for("title")
        assert record.estimated == pytest.approx(
            0.5 * len(imdb.catalog.table("title"))
        )

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

    def test_results_identical_with_and_without_capture(
        self, imdb, suite, imdb_workload
    ):
        query = _join_query(imdb_workload, min_joins=2)
        plain = EngineSession(imdb.catalog, suite=suite).run(query)
        captured = _session(imdb, suite).run(query)
        assert captured.result_rows == plain.result_rows
        assert captured.aggregate_value == plain.aggregate_value
        assert captured.blocks_read == plain.blocks_read

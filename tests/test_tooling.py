"""Tests for the explain and evaluation tooling."""

import numpy as np
import pytest

from repro.engine import EngineSession, EstimatorSuite
from repro.engine.explain import explain_plan, explain_result
from repro.evaluation import evaluate, evaluate_count, evaluate_ndv
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator


@pytest.fixture(scope="module")
def session(imdb, imdb_factorjoin, imdb_rbx):
    return EngineSession(
        imdb.catalog, EstimatorSuite("bytecard", imdb_factorjoin, imdb_rbx)
    )


class TestExplain:
    def test_plan_mentions_every_decision(self, session, imdb_workload):
        grouped = next(q for q in imdb_workload.queries if q.group_by and q.joins)
        plan = session.optimizer.plan(grouped)
        text = explain_plan(plan)
        for table in grouped.tables:
            assert table in text
        assert "join 1:" in text
        assert "aggregate by" in text
        assert "estimation cost" in text

    def test_result_mentions_costs(self, session, imdb_workload):
        result = session.run(imdb_workload.queries[0])
        text = explain_result(result)
        assert f"rows: {result.result_rows}" in text
        assert "total=" in text
        for table in result.query.tables:
            assert table in text

    def test_result_shows_answer_for_scalar_query(self, session, imdb_workload):
        flat = next(q for q in imdb_workload.queries if not q.group_by)
        result = session.run(flat)
        assert "answer:" in explain_result(result)


class TestEvaluationHarness:
    def test_count_summary(self, imdb, imdb_workload, imdb_factorjoin):
        summary = evaluate_count(imdb.catalog, imdb_workload, imdb_factorjoin)
        assert summary.count == len(imdb_workload.queries)
        assert summary.p50 >= 1.0

    def test_ndv_summary(self, imdb, imdb_workload, imdb_rbx):
        summary = evaluate_ndv(imdb.catalog, imdb_workload, imdb_rbx)
        assert summary.count > 0

    def test_combined(self, imdb, imdb_workload):
        result = evaluate(
            imdb.catalog,
            imdb_workload,
            count_estimator=SelingerEstimator(imdb.catalog),
            ndv_estimator=SketchNdvEstimator(imdb.catalog),
            name="sketch",
        )
        assert result.estimator == "sketch"
        assert result.count_summary is not None
        assert result.ndv_summary is not None

    def test_requires_an_estimator(self, imdb, imdb_workload):
        with pytest.raises(ValueError):
            evaluate(imdb.catalog, imdb_workload)

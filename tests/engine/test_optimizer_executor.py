"""Tests for the optimizer, executor, and engine session."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    EngineSession,
    EstimatorSuite,
    Executor,
    Optimizer,
    ReaderKind,
)
from repro.estimators.traditional import SelingerEstimator, SketchNdvEstimator
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.workloads import true_count


@pytest.fixture(scope="module")
def sketch_suite(imdb):
    return EstimatorSuite(
        "sketch",
        SelingerEstimator(imdb.catalog),
        SketchNdvEstimator(imdb.catalog),
    )


@pytest.fixture(scope="module")
def bytecard_suite(imdb, imdb_factorjoin, imdb_rbx):
    return EstimatorSuite("bytecard", imdb_factorjoin, imdb_rbx)


class TestOptimizer:
    def test_selective_query_gets_multi_stage(self, imdb, bytecard_suite):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        values = imdb.catalog.table("title").column("episode_nr").values
        rare = float(np.bincount(values.astype(int)).argmin())
        query = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "episode_nr", PredicateOp.EQ, rare),
            ),
        )
        plan = optimizer.plan(query)
        assert plan.readers["title"] is ReaderKind.MULTI_STAGE

    def test_non_selective_query_gets_single_stage(self, bytecard_suite):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        query = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GE, 0.0),
            ),
        )
        plan = optimizer.plan(query)
        assert plan.readers["title"] is ReaderKind.SINGLE_STAGE

    def test_join_order_covers_all_joins(self, bytecard_suite, imdb_workload):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        for query in imdb_workload.queries[:8]:
            plan = optimizer.plan(query)
            assert len(plan.join_order) == len(query.joins)
            assert set(j.normalized() for j in plan.join_order) == set(
                j.normalized() for j in query.joins
            )

    def test_join_order_is_connected_prefix(self, bytecard_suite, imdb_workload):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        for query in imdb_workload.queries[:8]:
            plan = optimizer.plan(query)
            joined: set[str] = set()
            for index, join in enumerate(plan.join_order):
                tables = set(join.tables())
                if index == 0:
                    joined |= tables
                else:
                    assert tables & joined
                    joined |= tables

    def test_estimation_cost_accumulates(self, bytecard_suite, imdb_workload):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        plan = optimizer.plan(imdb_workload.queries[0])
        assert plan.estimation_cost > 0

    def test_group_ndv_estimated_when_grouped(self, bytecard_suite, imdb_workload):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        grouped = next(q for q in imdb_workload.queries if q.group_by)
        plan = optimizer.plan(grouped)
        assert plan.estimated_group_ndv is not None
        assert plan.estimated_group_ndv >= 1.0

    def test_column_order_puts_selective_first(self, imdb, bytecard_suite):
        optimizer = Optimizer(
            bytecard_suite.count_estimator, bytecard_suite.ndv_estimator
        )
        query = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GE, 1800.0),
                TablePredicate("title", "kind_id", PredicateOp.EQ, 5.0),
            ),
        )
        plan = optimizer.plan(query)
        if plan.readers["title"] is ReaderKind.MULTI_STAGE:
            order = plan.column_orders["title"]
            assert order[0] == "kind_id"  # far more selective than year >= 1800


class TestExecutor:
    def test_result_rows_match_truth(self, imdb, bytecard_suite, imdb_workload):
        session = EngineSession(imdb.catalog, bytecard_suite)
        for query in imdb_workload.queries[:6]:
            result = session.run(query)
            assert result.result_rows == true_count(imdb.catalog, query)

    def test_group_counts_match_truth(self, imdb, bytecard_suite, imdb_workload):
        from repro.workloads import true_group_ndv

        session = EngineSession(imdb.catalog, bytecard_suite)
        grouped = [q for q in imdb_workload.queries if q.group_by][:4]
        for query in grouped:
            result = session.run(query)
            assert result.groups == true_group_ndv(imdb.catalog, query)

    def test_costs_are_positive(self, imdb, bytecard_suite, imdb_workload):
        session = EngineSession(imdb.catalog, bytecard_suite)
        result = session.run(imdb_workload.queries[0])
        assert result.io_cost > 0
        assert result.cpu_cost > 0
        assert result.total_cost == pytest.approx(
            result.estimation_cost + result.io_cost + result.cpu_cost
        )

    def test_plan_independence_of_results(self, imdb, sketch_suite, bytecard_suite,
                                          imdb_workload):
        """Different estimators produce different plans but identical
        answers -- the optimizer only changes *how*, never *what*."""
        sketch_session = EngineSession(imdb.catalog, sketch_suite)
        bytecard_session = EngineSession(imdb.catalog, bytecard_suite)
        for query in imdb_workload.queries[:6]:
            a = sketch_session.run(query)
            b = bytecard_session.run(query)
            assert a.result_rows == b.result_rows
            assert a.groups == b.groups

    def test_run_workload_profile(self, imdb, bytecard_suite, imdb_workload):
        session = EngineSession(imdb.catalog, bytecard_suite)
        profile = session.run_workload(imdb_workload.queries[:5])
        assert len(profile.records) == 5
        assert profile.percentile(0.5) > 0

    def test_presized_aggregation_beats_default(self, imdb, bytecard_suite,
                                                sketch_suite, imdb_workload):
        """With RBX pre-sizing, total resize moves across the workload are
        no worse than with the default-capacity configuration."""
        grouped = [q for q in imdb_workload.queries if q.group_by]
        bytecard_session = EngineSession(imdb.catalog, bytecard_suite)
        sketch_session = EngineSession(imdb.catalog, sketch_suite)
        bytecard_resizes = sum(
            bytecard_session.run(q).resize_count for q in grouped
        )
        sketch_resizes = sum(sketch_session.run(q).resize_count for q in grouped)
        assert bytecard_resizes <= sketch_resizes


class TestServiceBackedSession:
    """EngineSession wired to the serving tier instead of a raw suite."""

    def test_requires_exactly_one_of_suite_or_service(self, imdb, bytecard_suite):
        with pytest.raises(ValueError):
            EngineSession(imdb.catalog)
        from repro.serving import EstimationService, ServingConfig

        service = EstimationService(
            bytecard_suite.count_estimator,
            SelingerEstimator(imdb.catalog),
            SketchNdvEstimator(imdb.catalog),
            ServingConfig(deadline_ms=None),
        )
        with pytest.raises(ValueError):
            EngineSession(imdb.catalog, suite=bytecard_suite, service=service)
        service.close()

    def test_service_session_matches_suite_session(
        self, imdb, bytecard_suite, imdb_workload
    ):
        from repro.serving import EstimationService, ServingConfig

        suite_session = EngineSession(imdb.catalog, bytecard_suite)
        with EstimationService(
            bytecard_suite.count_estimator,
            SelingerEstimator(imdb.catalog),
            bytecard_suite.ndv_estimator,
            ServingConfig(deadline_ms=None),
        ) as service:
            served_session = EngineSession(imdb.catalog, service=service)
            assert served_session.service is service
            for query in imdb_workload.queries[:6]:
                a = suite_session.run(query)
                b = served_session.run(query)
                assert a.result_rows == b.result_rows
                assert a.groups == b.groups
        assert service.stats().requests > 0

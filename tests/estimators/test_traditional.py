"""Tests for the Selinger, HLL, sampling, and heuristic NDV estimators."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimators.frequency import frequency_profile
from repro.estimators.traditional import (
    HyperLogLog,
    SamplingCountEstimator,
    SamplingNdvEstimator,
    SelingerEstimator,
    SketchNdvEstimator,
    gee_estimate,
    linear_scaleup_estimate,
)
from repro.metrics import qerror
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.workloads import true_count, true_ndv


class TestSelinger:
    def test_no_predicate_returns_table_size(self, imdb):
        est = SelingerEstimator(imdb.catalog)
        q = CardQuery(tables=("title",))
        rows = len(imdb.catalog.table("title"))
        assert est.estimate_count(q) == pytest.approx(rows)

    def test_single_predicate_reasonable(self, imdb):
        est = SelingerEstimator(imdb.catalog)
        q = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GE, 1990.0),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(est.estimate_count(q), truth) < 3.0

    def test_join_uniformity_applied(self, imdb):
        est = SelingerEstimator(imdb.catalog)
        q = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
        )
        # |T| * |C| / max(V(id), V(movie_id)) -- for a PK side this is
        # exactly |C| when the FK references every title.
        estimate = est.estimate_count(q)
        assert estimate == pytest.approx(
            len(imdb.catalog.table("cast_info")), rel=0.25
        )

    def test_correlated_predicates_underestimated(self, aeolus):
        """Independence composition must underestimate correlated filters --
        the systematic error the learned models fix."""
        est = SelingerEstimator(aeolus.catalog)
        ads = aeolus.catalog.table("ads")
        platform = ads.column("target_platform").values
        hot = int(np.bincount(platform).argmax())
        content = ads.column("content_type").values[platform == hot]
        hot_content = int(np.bincount(content).argmax())
        q = CardQuery(
            tables=("ads",),
            predicates=(
                TablePredicate("ads", "target_platform", PredicateOp.EQ, float(hot)),
                TablePredicate("ads", "content_type", PredicateOp.EQ, float(hot_content)),
            ),
        )
        truth = true_count(aeolus.catalog, q)
        assert est.estimate_count(q) < truth

    def test_or_group_inclusion_exclusion(self, imdb):
        est = SelingerEstimator(imdb.catalog)
        q = CardQuery(
            tables=("title",),
            or_groups=(
                (
                    TablePredicate("title", "kind_id", PredicateOp.EQ, 0.0),
                    TablePredicate("title", "kind_id", PredicateOp.EQ, 1.0),
                ),
            ),
        )
        sel = est.selectivity(q)
        assert 0.0 < sel <= 1.0

    def test_selectivity_requires_single_table(self, imdb):
        est = SelingerEstimator(imdb.catalog)
        q = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
        )
        with pytest.raises(EstimationError):
            est.selectivity(q)


class TestHyperLogLog:
    def test_accuracy_on_large_sets(self):
        hll = HyperLogLog(precision=12)
        hll.add(np.arange(100_000))
        assert qerror(hll.estimate(), 100_000) < 1.05

    def test_small_range_linear_counting(self):
        hll = HyperLogLog(precision=12)
        hll.add(np.arange(50))
        assert qerror(hll.estimate(), 50) < 1.1

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(precision=12)
        for _ in range(5):
            hll.add(np.arange(1000))
        assert qerror(hll.estimate(), 1000) < 1.1

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=2)

    def test_empty_sketch(self):
        assert HyperLogLog(10).estimate() == 0.0


class TestSketchNdv:
    def test_unfiltered_matches_hll(self, imdb):
        est = SketchNdvEstimator(imdb.catalog)
        q = CardQuery(
            tables=("title",),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "title", "production_year"),
        )
        truth = true_ndv(imdb.catalog, q)
        assert qerror(est.estimate_ndv(q), truth) < 1.2

    def test_filtered_is_blind_to_predicates(self, imdb):
        """The precomputed sketch cannot see filters: its estimate barely
        moves while the truth collapses -- the paper's Table 1 failure."""
        est = SketchNdvEstimator(imdb.catalog)
        base = CardQuery(
            tables=("cast_info",),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "cast_info", "person_id"),
        )
        filtered = CardQuery(
            tables=("cast_info",),
            predicates=(TablePredicate("cast_info", "role_id", PredicateOp.EQ, 9.0),),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "cast_info", "person_id"),
        )
        t_filtered = true_ndv(imdb.catalog, filtered)
        e_filtered = est.estimate_ndv(filtered)
        # Estimate under filters only changes through the crude row cap.
        assert qerror(e_filtered, t_filtered) > qerror(
            est.estimate_ndv(base), true_ndv(imdb.catalog, base)
        )

    def test_requires_count_distinct(self, imdb):
        est = SketchNdvEstimator(imdb.catalog)
        with pytest.raises(EstimationError):
            est.estimate_ndv(CardQuery(tables=("title",)))


class TestSampling:
    def test_single_table_count_scales_up(self, imdb):
        est = SamplingCountEstimator(imdb.catalog, rate=0.2, seed=3)
        q = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GE, 1950.0),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(est.estimate_count(q), truth) < 1.5

    def test_join_estimate_reasonable_for_large_results(self, imdb):
        est = SamplingCountEstimator(imdb.catalog, rate=0.3, seed=3)
        q = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(est.estimate_count(q), truth) < 2.0

    def test_zero_matches_returns_floor(self, imdb):
        est = SamplingCountEstimator(imdb.catalog, rate=0.02, seed=3)
        q = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GT, 1e9),
            ),
        )
        assert est.estimate_count(q) >= 0.0

    def test_rate_validation(self, imdb):
        with pytest.raises(ValueError):
            SamplingCountEstimator(imdb.catalog, rate=0.0)

    def test_overhead_grows_with_tables(self, imdb):
        est = SamplingCountEstimator(imdb.catalog, rate=0.1)
        q1 = CardQuery(tables=("title",))
        q2 = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
        )
        assert est.estimation_overhead(q2) > est.estimation_overhead(q1)

    def test_ndv_estimate(self, imdb):
        est = SamplingNdvEstimator(imdb.catalog, rate=0.3, seed=3)
        q = CardQuery(
            tables=("title",),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "title", "kind_id"),
        )
        truth = true_ndv(imdb.catalog, q)
        assert qerror(est.estimate_ndv(q), truth) < 1.6


class TestNdvHeuristics:
    def _profile(self, sample, population):
        return frequency_profile(np.asarray(sample), population_size=population)

    def test_gee_scaling(self):
        profile = self._profile(list(range(100)), 10_000)
        expected = np.sqrt(10_000 / 100) * 100
        assert gee_estimate(profile) == pytest.approx(expected, rel=0.01)

    def test_gee_no_singletons(self):
        profile = self._profile([1, 1, 2, 2, 3, 3], 600)
        assert gee_estimate(profile) == pytest.approx(3.0)

    def test_linear_scaleup(self):
        profile = self._profile([1, 1, 2, 3], 400)
        assert linear_scaleup_estimate(profile) == pytest.approx(300.0)

    def test_empty_sample(self):
        profile = self._profile([], 100)
        assert gee_estimate(profile) == 0.0
        assert linear_scaleup_estimate(profile) == 0.0

"""Tests for join buckets and FactorJoin inference."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimators.factorjoin import (
    FactorJoinEstimator,
    JoinBucketizer,
)
from repro.metrics import qerror
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate
from repro.workloads import true_count


class TestJoinBucketizer:
    def test_one_class_per_connected_component(self, stats):
        bucketizer = JoinBucketizer(stats.catalog, num_buckets=50)
        # STATS has two key domains: users.Id-side and posts.Id-side.
        assert len(bucketizer.classes) == 2

    def test_imdb_single_class(self, imdb):
        bucketizer = JoinBucketizer(imdb.catalog, num_buckets=50)
        assert len(bucketizer.classes) == 1
        assert len(bucketizer.classes[0].members) == 6

    def test_member_counts_sum_to_rows(self, imdb):
        bucketizer = JoinBucketizer(imdb.catalog, num_buckets=50)
        cls = bucketizer.classes[0]
        counts = cls.member_counts[("cast_info", "movie_id")]
        assert counts.sum() == len(imdb.catalog.table("cast_info"))

    def test_domain_ndv_counts_union(self, imdb):
        bucketizer = JoinBucketizer(imdb.catalog, num_buckets=50)
        cls = bucketizer.classes[0]
        # Union domain = all title ids (FKs are subsets).
        assert cls.domain_ndv.sum() == len(imdb.catalog.table("title"))

    def test_max_freq_at_least_mean(self, imdb):
        bucketizer = JoinBucketizer(imdb.catalog, num_buckets=50)
        cls = bucketizer.classes[0]
        key = ("cast_info", "movie_id")
        counts = cls.member_counts[key]
        ndv = np.maximum(cls.member_ndv[key], 1.0)
        max_freq = cls.member_max_freq[key]
        occupied = counts > 0
        assert np.all(max_freq[occupied] >= counts[occupied] / ndv[occupied] - 1e-9)

    def test_unknown_column_rejected(self, imdb):
        bucketizer = JoinBucketizer(imdb.catalog)
        with pytest.raises(EstimationError):
            bucketizer.class_for("title", "production_year")

    def test_join_key_columns(self, stats):
        bucketizer = JoinBucketizer(stats.catalog)
        assert set(bucketizer.join_key_columns("comments")) == {"PostId", "UserId"}

    def test_bad_bucket_count(self, imdb):
        with pytest.raises(ValueError):
            JoinBucketizer(imdb.catalog, num_buckets=0)


class TestFactorJoinAccuracy:
    def test_unfiltered_pk_fk_join_near_exact(self, imdb, imdb_factorjoin):
        q = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(imdb_factorjoin.estimate_count(q), truth) < 1.2

    def test_filtered_join(self, imdb, imdb_factorjoin):
        q = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GE, 1980.0),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(imdb_factorjoin.estimate_count(q), truth) < 2.0

    def test_three_way_star(self, imdb, imdb_factorjoin):
        q = CardQuery(
            tables=("title", "cast_info", "movie_info"),
            joins=(
                JoinCondition("title", "id", "cast_info", "movie_id"),
                JoinCondition("title", "id", "movie_info", "movie_id"),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(imdb_factorjoin.estimate_count(q), truth) < 2.5

    def test_chain_join_through_two_classes(self, stats):
        est = FactorJoinEstimator.train(stats.catalog, stats.filter_columns)
        q = CardQuery(
            tables=("users", "posts", "comments"),
            joins=(
                JoinCondition("users", "Id", "posts", "OwnerUserId"),
                JoinCondition("posts", "Id", "comments", "PostId"),
            ),
        )
        truth = true_count(stats.catalog, q)
        assert qerror(est.estimate_count(q), truth) < 4.0

    def test_single_table_delegates_to_bn(self, imdb, imdb_factorjoin):
        q = CardQuery(
            tables=("title",),
            predicates=(TablePredicate("title", "kind_id", PredicateOp.EQ, 1.0),),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(imdb_factorjoin.estimate_count(q), truth) < 2.0

    def test_beats_sketch_on_workload(self, imdb, imdb_workload, imdb_factorjoin):
        from repro.estimators.traditional import SelingerEstimator

        sketch = SelingerEstimator(imdb.catalog)
        truths = [imdb_workload.true_counts[q.name] for q in imdb_workload.queries]
        fj_err = np.median(
            [
                qerror(imdb_factorjoin.estimate_count(q), t)
                for q, t in zip(imdb_workload.queries, truths)
            ]
        )
        sk_err = np.median(
            [
                qerror(sketch.estimate_count(q), t)
                for q, t in zip(imdb_workload.queries, truths)
            ]
        )
        assert fj_err <= sk_err

    def test_missing_model(self, imdb, imdb_factorjoin):
        with pytest.raises(EstimationError):
            imdb_factorjoin.model_for("not_a_table")

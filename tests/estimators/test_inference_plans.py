"""Shared-belief inference plans: pass accounting and shared artifacts.

A join estimate reads every join-key distribution, local selectivity and
OR-group term of one (table, predicates) scope from a single sweep column.
These tests pin the accounting -- one executed pass per table, requested
counting every consumer read -- the subtree memo, and the batch path's
shared-artifact reuse.  (The sweep itself is checked against the
enumerate-the-joint oracle in ``bn/test_inference.py``.)
"""

import numpy as np
import pytest

from repro.estimators.factorjoin import (
    FactorJoinEstimator,
    PassStats,
    PlanArtifactSource,
    QueryInferencePlans,
)
from repro.obs import MetricsRegistry
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.workloads.generator import WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def stats_fj(stats, registry):
    return FactorJoinEstimator.train(
        stats.catalog, stats.filter_columns, metrics=registry
    )


@pytest.fixture(scope="module")
def join_workload(stats):
    spec = WorkloadSpec(
        name="plan-identity",
        num_queries=30,
        min_tables=2,
        max_tables=5,
        max_predicates=4,
        aggregation_fraction=0.0,
        or_group_fraction=0.4,
        num_ndv_queries=0,
        seed=29,
    )
    return [
        q for q in generate_workload(stats, spec).queries if len(q.tables) >= 2
    ]


def _chain_query(**overrides) -> CardQuery:
    base = dict(
        tables=("users", "posts", "comments"),
        joins=(
            JoinCondition("users", "Id", "posts", "OwnerUserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, 10.0),
            TablePredicate("posts", "Score", PredicateOp.LE, 40.0),
            TablePredicate("comments", "Score", PredicateOp.GE, 1.0),
        ),
    )
    base.update(overrides)
    return CardQuery(**base)


def _multikey_query() -> CardQuery:
    """comments joins users and posts through *different* join keys."""
    return CardQuery(
        tables=("comments", "users", "posts"),
        joins=(
            JoinCondition("users", "Id", "comments", "UserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, 25.0),
            TablePredicate("comments", "Score", PredicateOp.GE, 2.0),
        ),
    )


def _or_query() -> CardQuery:
    return _chain_query(
        or_groups=(
            (
                TablePredicate("posts", "ViewCount", PredicateOp.GE, 500.0),
                TablePredicate("posts", "AnswerCount", PredicateOp.GE, 3.0),
            ),
        ),
    )


class TestEstimates:
    def test_generated_workload_finite_and_repeatable(self, stats_fj, join_workload):
        assert join_workload  # the generator must yield join queries
        for query in join_workload:
            estimate = stats_fj.estimate_count(query)
            assert np.isfinite(estimate) and estimate >= 0.0, query.name
            assert stats_fj.estimate_count(query) == estimate, query.name

    def test_or_group_scales_by_its_conditional_selectivity(self, stats_fj):
        """The OR correction is the inclusion-exclusion selectivity over the
        AND-only one, applied once to the table's bucket distribution."""
        model = stats_fj.model_for("posts")
        query = _or_query()
        base = [p for p in query.predicates if p.table == "posts"]
        group = list(query.or_groups[0])
        with_groups = (
            model.selectivity(base + group[:1])
            + model.selectivity(base + group[1:])
            - model.selectivity(base + group)
        )
        assert stats_fj.estimate_count(query) == pytest.approx(
            stats_fj.estimate_count(_chain_query())
            * with_groups
            / model.selectivity(base),
            rel=1e-9,
        )

    def test_predicate_free_join(self, stats_fj):
        query = _chain_query(predicates=())
        estimate = stats_fj.estimate_count(query)
        assert estimate > 0.0
        # No table is filtered: every scope is the model's prior, no sweep.
        assert stats_fj.last_pass_stats.executed == 0


class TestPassAccounting:
    def test_chain_runs_one_pass_per_table(self, stats_fj):
        stats_fj.estimate_count(_chain_query())
        recorded = stats_fj.last_pass_stats
        assert recorded is not None
        assert recorded.executed == 3  # one sweep per (table, predicates)
        assert recorded.requested > recorded.executed
        assert recorded.saved == recorded.requested - recorded.executed

    def test_requested_counts_consumer_reads(self, stats_fj):
        # users (root): distribution + and-selectivity; posts: distribution
        # on each of its two join keys + and-selectivity; comments:
        # distribution + and-selectivity.
        stats_fj.estimate_count(_chain_query())
        assert stats_fj.last_pass_stats.requested == 7

    def test_batch_of_one_accounts_like_unbatched(self, stats_fj, join_workload):
        for query in join_workload:
            stats_fj.estimate_count(query)
            unbatched = stats_fj.last_pass_stats
            stats_fj.estimate_join_batch([query])
            batched = stats_fj.last_pass_stats
            assert (batched.requested, batched.executed) == (
                unbatched.requested,
                unbatched.executed,
            ), query.name
            assert batched.executed <= len(query.tables)

    def test_or_groups_expand_requests_not_passes(self, stats_fj):
        stats_fj.estimate_count(_or_query())
        recorded = stats_fj.last_pass_stats
        # One sweep per table; the three inclusion-exclusion terms of the
        # posts OR group ride in posts' sweep, and their repeated reads at
        # other call sites are served from the scope's memo.
        assert recorded.executed == 3
        assert recorded.requested > recorded.executed + 3

    def test_single_table_clears_stats(self, stats_fj):
        stats_fj.estimate_count(_chain_query())
        assert stats_fj.last_pass_stats is not None
        stats_fj.estimate_count(
            CardQuery(
                tables=("users",),
                predicates=(
                    TablePredicate("users", "Views", PredicateOp.GE, 3.0),
                ),
            )
        )
        assert stats_fj.last_pass_stats is None

    def test_metrics_counters_advance(self, stats_fj, registry):
        before_total = registry.get("bn_passes_total").value
        before_saved = registry.get("bn_passes_saved_total").value
        stats_fj.estimate_count(_chain_query())
        assert registry.get("bn_passes_total").value == before_total + 3
        assert registry.get("bn_passes_saved_total").value > before_saved

    def test_saved_never_negative(self):
        stats = PassStats(requested=1, executed=5)
        assert stats.saved == 0
        snap = stats.snapshot()
        assert (snap.requested, snap.executed) == (1, 5)


class TestSubtreeMemoization:
    def test_compute_called_once_per_key(self, stats_fj):
        query = _chain_query()
        plans = QueryInferencePlans(
            stats_fj.model_for, query, PlanArtifactSource(), PassStats()
        )
        join = query.joins[1]
        calls = []

        def compute():
            calls.append(1)
            return np.ones(4)

        first = plans.subtree_weights("comments", join, compute)
        second = plans.subtree_weights("comments", join, compute)
        assert len(calls) == 1
        assert first is second


class TestJoinBatch:
    def test_batch_matches_sequential(self, stats_fj, join_workload):
        queries = join_workload[:8]
        sequential = [stats_fj.estimate_count(q) for q in queries]
        batched = stats_fj.estimate_join_batch(queries)
        # A batch sweeps each table's scopes as one wider GEMM, whose
        # blocking differs from the one-query sweeps -- allclose, not
        # bitwise, is the contract across widths.
        np.testing.assert_allclose(batched, sequential, rtol=1e-9)

    def test_batch_executes_fewer_passes(self, stats_fj, join_workload):
        queries = join_workload[:8]
        requested = executed = 0
        for query in queries:
            stats_fj.estimate_count(query)
            requested += stats_fj.last_pass_stats.requested
            executed += stats_fj.last_pass_stats.executed
        stats_fj.estimate_join_batch(queries)
        recorded = stats_fj.last_pass_stats
        # Scopes shared between queries are read once each in the batch.
        assert recorded.requested <= requested
        assert recorded.executed < executed
        assert recorded.executed <= len({t for q in queries for t in q.tables})

    def test_mixed_batch_handles_single_table(self, stats_fj):
        single = CardQuery(
            tables=("users",),
            predicates=(TablePredicate("users", "Views", PredicateOp.GE, 2.0),),
        )
        join = _chain_query()
        batched = stats_fj.estimate_join_batch([single, join])
        assert batched[0] == stats_fj.estimate_count(single)
        assert batched[1] == stats_fj.estimate_count(join)
        assert stats_fj.last_pass_stats is not None

    def test_empty_batch(self, stats_fj):
        assert stats_fj.estimate_join_batch([]) == []

    def test_shared_source_reuses_scopes_across_queries(self, stats_fj):
        query = _chain_query()
        source = PlanArtifactSource()
        stats = PassStats()
        for _ in range(2):
            plans = QueryInferencePlans(stats_fj.model_for, query, source, stats)
            stats_fj._prime([plans], stats)
            stats_fj._estimate_join(query, plans)
        assert stats.executed == 3  # second query hits the shared artifacts


class TestEstimationOverhead:
    def test_scales_with_tables_and_or_terms(self, stats_fj):
        chain = _chain_query()
        assert stats_fj.estimation_overhead(chain) > 0.0
        assert stats_fj.estimation_overhead(_or_query()) > (
            stats_fj.estimation_overhead(chain)
        )

    def test_single_table_cheaper_than_join(self, stats_fj):
        single = CardQuery(
            tables=("users",),
            predicates=(TablePredicate("users", "Views", PredicateOp.GE, 2.0),),
        )
        assert stats_fj.estimation_overhead(single) < (
            stats_fj.estimation_overhead(_chain_query())
        )

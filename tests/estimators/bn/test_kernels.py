"""Evidence cache, and the estimators' use of the one inference sweep.

The sum-product itself is pinned against the enumerate-the-joint oracle in
``test_inference.py``.  These tests pin what sits around it: the evidence
cache's model keying (a reloaded BN never reads its predecessor's masks,
checked through a real ``ByteCard.refresh()``), the scope / OR-term folding
and its pass accounting, the prior beliefs served from the context, the
exported metrics, and that a refresh keeps the contexts of untouched tables.
"""

import numpy as np
import pytest

from repro.estimators.bn.estimator import _selectivity_with_or_groups
from repro.estimators.bn.model import fit_tree_bn, new_evidence_cache
from repro.estimators.factorjoin import FactorJoinEstimator
from repro.estimators.factorjoin.estimator import MAX_FOLDED_TERMS
from repro.obs import MetricsRegistry, export_json
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.storage import Table
from repro.utils.lru import GenerationLRU
from repro.workloads.generator import WorkloadSpec, generate_workload


# ----------------------------------------------------------------------
# Evidence cache semantics
# ----------------------------------------------------------------------
def _tiny_bn(max_bins=8):
    table = Table.from_arrays(
        "t", {"c": np.arange(100), "d": np.arange(100) % 7}
    )
    return fit_tree_bn(table, ["c", "d"], max_bins=max_bins)


def _pred(table="t", column="c", op=PredicateOp.LE, value=3.0):
    return TablePredicate(table, column, op, value)


def _cached_mask(cache, model, pred):
    """Look ``pred`` up through the model's evidence path; return its mask."""
    model.evidence_for([[pred]], cache)
    return cache.get((model.init_context().token, pred))


class TestEvidenceCache:
    def test_hit_miss_counting_and_bitwise_vectors(self):
        registry = MetricsRegistry()
        cache = new_evidence_cache(registry)
        model = _tiny_bn()
        pred = _pred()
        cached = model.evidence_for([[pred]], cache)
        uncached = model.evidence_for([[pred]])
        assert all(np.array_equal(a, b) for a, b in zip(cached, uncached))
        first = cache.get((model.context.token, pred))
        assert np.array_equal(first, model.discretizers["c"].evidence(pred))
        assert _cached_mask(cache, model, pred) is first  # the same array
        # evidence_for missed then hit; the two direct gets above hit too
        assert (cache.hits, cache.misses) == (3, 1)
        counters = export_json(registry)["counters"]
        assert counters["evidence_cache_hits_total"] == 3
        assert counters["evidence_cache_misses_total"] == 1
        assert "evidence_cache_invalidations_total" not in counters

    def test_vectors_are_read_only(self):
        vector = _cached_mask(new_evidence_cache(), _tiny_bn(), _pred())
        with pytest.raises(ValueError):
            vector[0] = 9.0

    def test_stale_on_bin_count_mismatch(self):
        cache = new_evidence_cache()
        pred = _pred()
        fine = _cached_mask(cache, _tiny_bn(max_bins=8), pred)
        # Same predicate, a reloaded model with a different grid: its own
        # token keys its own mask, the old vector is never served to it.
        refreshed = _tiny_bn(max_bins=4)
        coarse = _cached_mask(cache, refreshed, pred)
        assert coarse.size == refreshed.discretizers["c"].num_bins != fine.size
        assert cache.misses == 2 and cache.invalidations == 0

    def test_lru_eviction(self):
        cache = GenerationLRU(max_entries=2)
        model = _tiny_bn()
        a, b, c = (_pred(value=float(v)) for v in (1.0, 2.0, 5.0))
        model.evidence_for([[a]], cache)
        model.evidence_for([[b]], cache)
        model.evidence_for([[a]], cache)  # refresh a's recency
        model.evidence_for([[c]], cache)  # evicts b
        assert cache.evictions == 1 and len(cache) == 2
        model.evidence_for([[a]], cache)
        assert cache.hits == 2  # a still resident
        model.evidence_for([[b]], cache)
        assert cache.misses == 4  # b was the evictee


# ----------------------------------------------------------------------
# Estimator integration: join batches, folding, accounting, metrics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained(stats):
    return FactorJoinEstimator.train(
        stats.catalog, stats.filter_columns, sample_rows=20_000
    )


@pytest.fixture(scope="module")
def kernel_registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def fj_kernel(trained, kernel_registry):
    return FactorJoinEstimator(
        trained.catalog,
        trained.models,
        trained.bucketizer,
        metrics=kernel_registry,
    )


@pytest.fixture(scope="module")
def join_batch(stats):
    spec = WorkloadSpec(
        name="kernel-parity",
        num_queries=48,
        min_tables=2,
        max_tables=5,
        max_predicates=4,
        aggregation_fraction=0.0,
        or_group_fraction=0.35,
        num_ndv_queries=0,
        seed=47,
    )
    return [
        q for q in generate_workload(stats, spec).queries if len(q.tables) >= 2
    ]


def _chain_query(reputation, score):
    return CardQuery(
        tables=("users", "posts", "comments"),
        joins=(
            JoinCondition("users", "Id", "posts", "OwnerUserId"),
            JoinCondition("posts", "Id", "comments", "PostId"),
        ),
        predicates=(
            TablePredicate("users", "Reputation", PredicateOp.GE, reputation),
            TablePredicate("posts", "Score", PredicateOp.LE, score),
            TablePredicate("comments", "Score", PredicateOp.GE, 1.0),
        ),
    )


def _or_group(table, column, values):
    return tuple(
        TablePredicate(table, column, PredicateOp.GE, float(v)) for v in values
    )


class TestEstimatorIntegration:
    def test_join_batch_matches_one_at_a_time(self, fj_kernel, join_batch):
        assert join_batch
        batched = fj_kernel.estimate_join_batch(join_batch)
        # A batch folds more scopes and OR-terms into each table's sweep,
        # so GEMM widths (hence BLAS blocking, hence low bits) differ from
        # the one-query sweeps; values agree to fp noise.
        np.testing.assert_allclose(
            batched,
            [fj_kernel.estimate_count(query) for query in join_batch],
            rtol=1e-9,
            atol=0.0,
        )

    def test_single_query_join_is_a_batch_of_one(self, fj_kernel, join_batch):
        for query in join_batch[:6]:
            (batched,) = fj_kernel.estimate_join_batch([query])
            assert batched == fj_kernel.estimate_count(query)

    def test_single_table_batch_matches_one_at_a_time(self, fj_kernel):
        queries = [
            CardQuery(
                tables=("posts",),
                predicates=(
                    TablePredicate("posts", "Score", PredicateOp.GE, float(v)),
                ),
                # every third query carries an OR group (two more columns)
                or_groups=(_or_group("posts", "ViewCount", (100, 500)),) * (v % 3 == 0),
            )
            for v in range(-2, 8)
        ]
        batched = fj_kernel.estimate_count_batch("posts", queries)
        np.testing.assert_allclose(
            batched,
            [fj_kernel.estimate_count(query) for query in queries],
            rtol=1e-12,
        )
        for query in queries:
            assert fj_kernel.estimate_count_batch("posts", [query]) == [
                fj_kernel.estimate_count(query)
            ]

    def test_predicate_free_count_is_exactly_total_rows(self, fj_kernel):
        # All-ones evidence would return the CPDs' round-off instead
        # (postHistory: 4499.999999999999), so such scopes take no sweep.
        for table, model in fj_kernel.models.items():
            query = CardQuery(tables=(table,))
            assert (
                fj_kernel.estimate_count_batch(table, [query])
                == [fj_kernel.estimate_count(query)]
                == [model.total_rows]
            ), table
            assert fj_kernel.selectivity(query) == 1.0

    def test_lone_scopes_and_terms_fold_into_one_pass(self, fj_kernel):
        query = _chain_query(10.0, 40.0)
        query = CardQuery(
            tables=query.tables,
            joins=query.joins,
            predicates=query.predicates,
            or_groups=(
                (
                    TablePredicate("posts", "ViewCount", PredicateOp.GE, 500.0),
                    TablePredicate("posts", "AnswerCount", PredicateOp.GE, 3.0),
                ),
            ),
        )
        fj_kernel.estimate_count(query)
        stats = fj_kernel.last_pass_stats
        # One sweep per table, OR terms folded: 3 executed passes, with the
        # expansion's three terms (read at several call sites) all saved.
        assert stats.executed == len(query.tables)
        assert stats.requested > stats.executed + 3
        assert stats.saved == stats.requested - stats.executed

    def test_wide_or_expansion_folds_in_chunks(self, fj_kernel):
        groups = (
            _or_group("posts", "ViewCount", (100, 500, 2000)),
            _or_group("posts", "Score", (1, 5, 20)),
            _or_group("posts", "AnswerCount", (1, 2)),
        )
        base = _chain_query(10.0, 40.0)
        query = CardQuery(
            tables=base.tables,
            joins=base.joins,
            predicates=base.predicates,
            or_groups=groups,
        )
        terms = 7 * 7 * 3
        assert terms > MAX_FOLDED_TERMS
        estimate = fj_kernel.estimate_count(query)
        stats = fj_kernel.last_pass_stats
        # One sweep per table plus the expansion's own <= 32-column sweeps.
        assert stats.executed == len(query.tables) + -(-terms // MAX_FOLDED_TERMS)
        # Same inclusion-exclusion, one scalar sweep per term.
        model = fj_kernel.model_for("posts")
        posts_base = [p for p in query.predicates if p.table == "posts"]
        with_groups = _selectivity_with_or_groups(
            model, posts_base, [list(group) for group in groups]
        )
        plain = fj_kernel.estimate_count(base)
        assert estimate == pytest.approx(
            plain * with_groups / model.selectivity(posts_base), rel=1e-9
        )

    def test_unfiltered_scope_served_from_context_prior(self, trained):
        fj = FactorJoinEstimator(
            trained.catalog, trained.models, trained.bucketizer
        )
        query = CardQuery(
            tables=("users", "posts"),
            joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
            predicates=(
                TablePredicate("posts", "Score", PredicateOp.GE, 5.0),
            ),
        )
        first = fj.estimate_join_batch([query])
        # users is unfiltered: no sweep, its beliefs are the prior the
        # context swept when it was built; only posts runs.
        assert fj.last_pass_stats.executed == 1
        assert fj.estimate_join_batch([query]) == first
        assert fj.last_pass_stats.executed == 1
        users = fj.model_for("users")
        prior_beliefs, _probability = users.init_context().prior
        assert np.array_equal(
            users.distribution("Id", []), prior_beliefs[users.column_index("Id")]
        )

    def test_kernel_metrics_exported(self, fj_kernel, kernel_registry):
        exported = export_json(kernel_registry)
        counters = exported["counters"]
        assert counters["bn_kernel_batches_total"] > 0
        assert (
            counters["bn_kernel_queries_total"]
            >= counters["bn_kernel_batches_total"]
        )
        assert "bn_kernel_build_seconds" in exported["histograms"]
        assert counters["evidence_cache_misses_total"] > 0

    def test_every_sweep_is_counted(self, trained):
        registry = MetricsRegistry()
        fj = FactorJoinEstimator(
            trained.catalog, trained.models, trained.bucketizer, metrics=registry
        )
        single = CardQuery(
            tables=("posts",),
            predicates=(TablePredicate("posts", "Score", PredicateOp.GE, 5.0),),
        )
        fj.estimate_count(single)
        fj.selectivity(single)
        fj.estimate_count_batch("posts", [single, single])
        fj.estimate_count(CardQuery(tables=("posts",)))  # no sweep
        assert registry.get("bn_kernel_batches_total").value == 3
        assert registry.get("bn_kernel_queries_total").value == 4
        fj.estimate_count(_chain_query(10.0, 40.0))
        assert registry.get("bn_kernel_batches_total").value == 6
        assert registry.get("bn_kernel_queries_total").value == 7
        assert fj.last_pass_stats.executed == 3


# ----------------------------------------------------------------------
# ByteCard wiring: model-keyed caches across refresh, micro-batch knobs
# ----------------------------------------------------------------------
class TestByteCardWiring:
    @pytest.fixture(scope="class")
    def bytecard(self, aeolus):
        from repro.core import ByteCard

        card = ByteCard(aeolus)
        card.forge_service.train_count_models(aeolus)
        card.refresh()
        return card

    def test_refresh_invalidates_evidence_cache(self, bytecard, aeolus):
        cache = bytecard.evidence_cache
        table = next(iter(bytecard._factorjoin.models))
        model = bytecard._factorjoin.models[table]
        pred = TablePredicate(table, model.columns[0], PredicateOp.GE, 0.0)
        model.evidence_for([[pred]], cache)
        model.evidence_for([[pred]], cache)
        hits_before, misses_before = cache.hits, cache.misses
        # Republish + refresh: the reloaded BN is a new model with a new
        # token, so the old mask can never be read for it again.
        bytecard.forge_service.train_count_models(aeolus)
        bytecard.refresh()
        reloaded = bytecard._factorjoin.models[table]
        assert reloaded.context.token != model.context.token
        reloaded.evidence_for([[pred]], cache)
        assert (cache.hits, cache.misses) == (hits_before, misses_before + 1)
        # The rebuilt FactorJoin shares the facade-owned caches.
        assert bytecard._factorjoin.evidence_cache is cache
        assert bytecard._factorjoin.plan_cache is bytecard.plan_cache

    def test_refresh_keeps_contexts_of_untouched_tables(self, bytecard, aeolus):
        before = {
            table: model.context
            for table, model in bytecard._factorjoin.models.items()
        }
        assert all(context is not None for context in before.values())
        changed = sorted(before)[0]
        # Republish one table: only its inference schedule is recompiled.
        bytecard.forge_service.train_count_models(aeolus, tables=[changed])
        bytecard.refresh()
        after = bytecard._factorjoin.models
        assert after[changed].context is not before[changed]
        for table, context in before.items():
            if table != changed:
                assert after[table].context is context, table

    def test_serve_defaults_documented_values(self, bytecard):
        from repro.serving import ServingConfig

        with bytecard.serve() as service:
            assert service.config == ServingConfig()
            assert service.config.deadline_ms == 5.0

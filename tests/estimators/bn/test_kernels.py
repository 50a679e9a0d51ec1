"""Fused BN inference kernels: bit-identity, evidence cache, accounting.

The tentpole invariant mirrors the PR 5 plan tests one level down: a
:class:`KernelPlan` sweep -- flat or grouped, any batch width, any tree
shape -- must be **bitwise** identical to ``beliefs`` / ``beliefs_batch``
on the same evidence.  Around that core, these tests pin the evidence
cache's generation semantics (including invalidation through a real
``ModelLoader.refresh()``), the lone-scope / OR-term folding accounting,
and the clean numba degradation when numba is absent.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.estimators.bn.discretize import Discretizer
from repro.estimators.bn.inference import BNInferenceContext
from repro.estimators.bn.kernels import (
    BACKEND_ENV,
    HAVE_NUMBA,
    EvidenceCache,
    KernelPlan,
    resolve_backend,
)
from repro.estimators.factorjoin import FactorJoinEstimator, PassStats
from repro.obs import MetricsRegistry, export_json
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.workloads.generator import WorkloadSpec, generate_workload


# ----------------------------------------------------------------------
# Random-tree scaffolding
# ----------------------------------------------------------------------
def _random_context(rng, n, bin_low=2, bin_high=40):
    """A random rooted tree BN with data-free CPDs."""
    bins = [int(rng.integers(bin_low, bin_high)) for _ in range(n)]
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    cpds = []
    for i in range(n):
        if parents[i] < 0:
            p = rng.random(bins[i]) + 0.01
            cpds.append(p / p.sum())
        else:
            m = rng.random((bins[parents[i]], bins[i])) + 0.01
            cpds.append(m / m.sum(axis=1, keepdims=True))
    return BNInferenceContext.from_structure(np.asarray(parents), cpds)


def _random_evidence(rng, context, batch):
    return [
        np.clip(rng.random((context.bin_count(i), batch)), 0.05, 1.0)
        for i in range(context.num_nodes)
    ]


def _star_chain_context(bins_list):
    """Node 0 fans out to 1..k, then a chain hangs off node 1 (ragged)."""
    n = len(bins_list)
    parents = [-1] + [0] * min(3, n - 1) + [1] * max(0, n - 4)
    parents = parents[:n]
    cpds = []
    rng = np.random.default_rng(5)
    for i in range(n):
        if parents[i] < 0:
            p = rng.random(bins_list[i]) + 0.01
            cpds.append(p / p.sum())
        else:
            m = rng.random((bins_list[parents[i]], bins_list[i])) + 0.01
            cpds.append(m / m.sum(axis=1, keepdims=True))
    return BNInferenceContext.from_structure(np.asarray(parents), cpds)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    @pytest.mark.parametrize("alias", ["", "numpy", "on", "1", "default"])
    def test_numpy_aliases(self, alias):
        assert resolve_backend(alias) == "numpy"

    @pytest.mark.parametrize("alias", ["off", "0", "none", "disabled", "OFF"])
    def test_off_aliases(self, alias):
        assert resolve_backend(alias) == "off"

    def test_numba_degrades_without_numba(self):
        resolved = resolve_backend("numba")
        assert resolved == ("numba" if HAVE_NUMBA else "numpy")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_environment_variable_consulted(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "off")
        assert resolve_backend() == "off"
        monkeypatch.delenv(BACKEND_ENV)
        assert resolve_backend() == "numpy"


# ----------------------------------------------------------------------
# Kernel bit-identity (the tentpole property)
# ----------------------------------------------------------------------
class TestKernelBitIdentity:
    def test_random_trees_bitwise_vs_beliefs_batch(self):
        rng = np.random.default_rng(7)
        flat_seen = grouped_seen = 0
        for trial in range(60):
            n = int(rng.integers(1, 12))
            # Narrow bin ranges force shape collisions (grouped stacking);
            # wide ranges make every shape unique (flat schedule).
            context = (
                _random_context(rng, n)
                if trial % 2
                else _random_context(rng, n, 3, 6)
            )
            plan = KernelPlan(context)
            if plan.flat:
                flat_seen += 1
            else:
                grouped_seen += 1
            for batch in (1, 2, 7, 16):
                evidence = _random_evidence(rng, context, batch)
                ref_beliefs, ref_probs = context.beliefs_batch(evidence)
                run = plan.run([e.copy() for e in evidence])
                for node in range(n):
                    assert np.array_equal(
                        ref_beliefs[node], run.beliefs_matrix(node)
                    ), (trial, batch, node, plan.flat)
                assert np.array_equal(ref_probs, run.probabilities)
        assert flat_seen and grouped_seen  # both layouts exercised

    def test_batch_of_one_bitwise_vs_scalar_beliefs(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            context = _random_context(rng, int(rng.integers(1, 10)))
            plan = KernelPlan(context)
            evidence = _random_evidence(rng, context, 1)
            scalar_beliefs, scalar_prob = context.beliefs(
                [e[:, 0] for e in evidence]
            )
            run = plan.run(evidence)
            for node in range(context.num_nodes):
                assert np.array_equal(
                    scalar_beliefs[node], run.beliefs_matrix(node)[:, 0]
                )
            assert scalar_prob == run.probability(0)

    def test_flat_and_grouped_schedules_agree_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            context = _random_context(rng, int(rng.integers(2, 10)))
            flat_plan = KernelPlan(context)
            if not flat_plan.flat:
                continue  # needs single-node groups to compare both
            grouped_plan = KernelPlan(context, flat=False)
            evidence = _random_evidence(rng, context, 5)
            flat_run = flat_plan.run([e.copy() for e in evidence])
            grouped_run = grouped_plan.run([e.copy() for e in evidence])
            for node in range(context.num_nodes):
                assert np.array_equal(
                    flat_run.beliefs_matrix(node),
                    grouped_run.beliefs_matrix(node),
                )
            assert np.array_equal(
                flat_run.probabilities, grouped_run.probabilities
            )

    def test_ragged_star_chain_tree(self):
        context = _star_chain_context([4, 7, 4, 4, 9, 3, 9])
        plan = KernelPlan(context)
        rng = np.random.default_rng(3)
        for batch in (1, 6):
            evidence = _random_evidence(rng, context, batch)
            ref_beliefs, ref_probs = context.beliefs_batch(evidence)
            run = plan.run([e.copy() for e in evidence])
            for node in range(context.num_nodes):
                assert np.array_equal(
                    ref_beliefs[node], run.beliefs_matrix(node)
                )
            assert np.array_equal(ref_probs, run.probabilities)

    def test_selectivities_bitwise_vs_selectivity_batch(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            context = _random_context(rng, int(rng.integers(1, 10)))
            plan = KernelPlan(context)
            batch = int(rng.integers(1, 9))
            evidence = _random_evidence(rng, context, batch)
            reference = context.selectivity_batch(evidence)
            packs = plan.ones_packs(batch)
            for node in range(context.num_nodes):
                for column in range(batch):
                    plan.apply_evidence(
                        packs, node, column, evidence[node][:, column]
                    )
            assert np.array_equal(
                reference, plan.selectivities_packs(packs)
            ), (trial, plan.flat)

    def test_scope_beliefs_columns_match_matrices(self):
        rng = np.random.default_rng(41)
        context = _random_context(rng, 6)
        plan = KernelPlan(context)
        evidence = _random_evidence(rng, context, 4)
        run = plan.run(evidence)
        for column in range(4):
            vectors = run.scope_beliefs(column)
            for node, vector in enumerate(vectors):
                assert np.array_equal(
                    vector, run.beliefs_matrix(node)[:, column]
                )
                assert not vector.flags.writeable

    def test_flat_override_rejected_on_stacked_shapes(self):
        # Two same-shaped siblings share a group; forcing flat must fail.
        parents = np.asarray([-1, 0, 0])
        rng = np.random.default_rng(1)
        root = rng.random(4) + 0.1
        kid = rng.random((4, 4)) + 0.1
        context = BNInferenceContext.from_structure(
            parents,
            [root / root.sum(), *(2 * [kid / kid.sum(axis=1, keepdims=True)])],
        )
        assert not KernelPlan(context).flat
        with pytest.raises(ModelError):
            KernelPlan(context, flat=True)

    def test_empty_batch_rejected(self):
        context = _random_context(np.random.default_rng(2), 3)
        with pytest.raises(ModelError):
            KernelPlan(context).ones_packs(0)


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaParity:  # pragma: no cover - exercised only with numba
    def test_numba_backend_bitwise_vs_numpy(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            context = _random_context(rng, int(rng.integers(2, 10)), 3, 6)
            evidence = _random_evidence(rng, context, 8)
            numpy_run = KernelPlan(context, backend="numpy", flat=False).run(
                [e.copy() for e in evidence]
            )
            numba_run = KernelPlan(context, backend="numba", flat=False).run(
                [e.copy() for e in evidence]
            )
            for node in range(context.num_nodes):
                assert np.array_equal(
                    numpy_run.beliefs_matrix(node),
                    numba_run.beliefs_matrix(node),
                )


# ----------------------------------------------------------------------
# Evidence cache semantics
# ----------------------------------------------------------------------
def _discretizer(values, max_bins=8):
    return Discretizer(np.asarray(values, dtype=np.float64), max_bins=max_bins)


def _pred(table="t", column="c", op=PredicateOp.LE, value=3.0):
    return TablePredicate(table, column, op, value)


class TestEvidenceCache:
    def test_hit_miss_counting_and_bitwise_vectors(self):
        registry = MetricsRegistry()
        cache = EvidenceCache(registry=registry)
        disc = _discretizer(np.arange(100))
        pred = _pred()
        first = cache.vector(disc, pred)
        assert np.array_equal(first, disc.evidence(pred))
        second = cache.vector(disc, pred)
        assert second is first  # the very same immutable array
        assert (cache.hits, cache.misses) == (1, 1)
        counters = export_json(registry)["counters"]
        assert counters["evidence_cache_hits_total"] == 1
        assert counters["evidence_cache_misses_total"] == 1
        assert counters["evidence_cache_invalidations_total"] == 0

    def test_vectors_are_read_only(self):
        cache = EvidenceCache()
        vector = cache.vector(_discretizer(np.arange(50)), _pred())
        with pytest.raises(ValueError):
            vector[0] = 9.0

    def test_bump_tables_invalidates_only_that_table(self):
        cache = EvidenceCache()
        disc = _discretizer(np.arange(100))
        pred_t = _pred(table="t")
        pred_u = _pred(table="u")
        cache.vector(disc, pred_t)
        cache.vector(disc, pred_u)
        cache.bump_tables(["t"])
        cache.vector(disc, pred_t)
        cache.vector(disc, pred_u)
        assert cache.invalidations == 1
        assert cache.misses == 3  # t twice, u once
        assert cache.hits == 1  # u's second lookup

    def test_bump_all_invalidates_everything(self):
        cache = EvidenceCache()
        disc = _discretizer(np.arange(100))
        preds = [_pred(table=name) for name in ("a", "b")]
        for pred in preds:
            cache.vector(disc, pred)
        cache.bump_all()
        for pred in preds:
            cache.vector(disc, pred)
        assert cache.invalidations == 2 and cache.hits == 0

    def test_stale_on_bin_count_mismatch(self):
        cache = EvidenceCache()
        pred = _pred()
        cache.vector(_discretizer(np.arange(100), max_bins=8), pred)
        # Same predicate, refreshed model with a different grid: the cached
        # vector's length no longer matches and must not be served.
        refreshed = _discretizer(np.arange(100), max_bins=4)
        vector = cache.vector(refreshed, pred)
        assert vector.size == refreshed.num_bins
        assert cache.invalidations == 1

    def test_lru_eviction(self):
        cache = EvidenceCache(max_entries=2)
        disc = _discretizer(np.arange(100))
        a, b, c = (_pred(value=float(v)) for v in (1.0, 2.0, 5.0))
        cache.vector(disc, a)
        cache.vector(disc, b)
        cache.vector(disc, a)  # refresh a's recency
        cache.vector(disc, c)  # evicts b
        assert cache.evictions == 1 and len(cache) == 2
        cache.vector(disc, a)
        assert cache.hits == 2  # a still resident
        cache.vector(disc, b)
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
        kernel="numpy",
    )


@pytest.fixture(scope="module")
def fj_off(trained):
    return FactorJoinEstimator(
        trained.catalog, trained.models, trained.bucketizer, kernel="off"
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


class TestEstimatorIntegration:
    def test_join_batch_matches_plans_path(self, fj_kernel, fj_off, join_batch):
        assert join_batch
        kernel_results = fj_kernel.estimate_join_batch(join_batch)
        off_results = fj_off.estimate_join_batch(join_batch)
        # Kernel invocations fold OR-terms and priors into wider GEMMs, so
        # widths (hence BLAS blocking, hence low bits) may differ from the
        # plans path; values agree to fp noise.
        np.testing.assert_allclose(
            kernel_results, off_results, rtol=1e-9, atol=0.0
        )

    def test_join_batch_bitwise_when_widths_match(self, fj_kernel, fj_off):
        # Every table carries two filtered scopes and no OR groups: the
        # kernel assembles exactly the same evidence widths as the PR 5
        # beliefs_batch pass, so results must be *bitwise* identical.
        batch = [_chain_query(10.0, 40.0), _chain_query(25.0, 15.0)]
        assert fj_kernel.estimate_join_batch(batch) == (
            fj_off.estimate_join_batch(batch)
        )

    def test_single_query_join_matches_batch_of_one(self, fj_kernel, join_batch):
        for query in join_batch[:6]:
            (batched,) = fj_kernel.estimate_join_batch([query])
            assert batched == pytest.approx(
                fj_kernel.estimate_count(query), rel=1e-9
            )

    def test_single_table_batch_bitwise(self, fj_kernel, fj_off, stats):
        queries = [
            CardQuery(
                tables=("posts",),
                predicates=(
                    TablePredicate("posts", "Score", PredicateOp.GE, float(v)),
                ),
            )
            for v in range(-2, 8)
        ]
        assert fj_kernel.estimate_count_batch("posts", queries) == (
            fj_off.estimate_count_batch("posts", queries)
        )

    def test_lone_scopes_and_terms_fold_into_one_pass(
        self, fj_kernel, fj_off
    ):
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
        fj_kernel.estimate_join_batch([query])
        kernel_stats = fj_kernel.last_pass_stats
        fj_off.estimate_join_batch([query])
        off_stats = fj_off.last_pass_stats
        # One kernel invocation per table, OR terms folded: 3 executed
        # passes, with the expansion's extra terms all accounted as saved.
        assert kernel_stats.executed == len(query.tables)
        assert kernel_stats.requested == off_stats.requested
        assert kernel_stats.executed < off_stats.executed
        assert kernel_stats.saved > off_stats.saved

    def test_unfiltered_scope_served_from_prior_cache(self, trained):
        fj = FactorJoinEstimator(
            trained.catalog, trained.models, trained.bucketizer, kernel="numpy"
        )
        query = CardQuery(
            tables=("users", "posts"),
            joins=(JoinCondition("users", "Id", "posts", "OwnerUserId"),),
            predicates=(
                TablePredicate("posts", "Score", PredicateOp.GE, 5.0),
            ),
        )
        first = fj.estimate_join_batch([query])
        assert "users" in fj._prior_beliefs
        # First batch: one kernel pass for posts, one prior pass for users.
        assert fj.last_pass_stats.executed == 2
        second = fj.estimate_join_batch([query])
        assert first == second
        # Later batches reuse the cached prior; only posts runs again.
        assert fj.last_pass_stats.executed == 1

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

    def test_kernel_plans_shared_with_bn_batch_path(self, fj_kernel):
        assert fj_kernel._bn._kernel_plans is fj_kernel._kernel_plans


# ----------------------------------------------------------------------
# ByteCard wiring: loader-refresh invalidation, micro-batch knobs
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
        column = model.columns[0]
        pred = TablePredicate(table, column, PredicateOp.GE, 0.0)
        disc = model.discretizers[column]
        cache.vector(disc, pred)
        assert cache.vector(disc, pred) is not None
        hits_before = cache.hits
        invalidations_before = cache.invalidations
        # Republish + loader refresh: the changed BN bumps its table.
        bytecard.forge_service.train_count_models(aeolus)
        bytecard.refresh()
        cache.vector(disc, pred)
        assert cache.invalidations > invalidations_before
        assert cache.hits == hits_before
        # The rebuilt FactorJoin shares the facade-owned cache instance.
        assert bytecard._factorjoin.evidence_cache is cache

    def test_serve_micro_batch_knob(self, bytecard):
        with bytecard.serve(max_batch_size=32) as service:
            assert service.config.max_batch_size == 32
            assert service.batcher.max_batch_size == 32

    def test_serve_defaults_documented_values(self, bytecard):
        with bytecard.serve() as service:
            assert service.config.max_batch_size == 16

    def test_batching_config_preserves_other_fields(self, bytecard):
        from repro.serving import ServingConfig

        config = ServingConfig(deadline_ms=None, num_workers=3)
        updated = bytecard._batching_config(config, 64)
        assert updated.max_batch_size == 64
        assert updated.num_workers == 3
        assert updated.deadline_ms is None
        assert bytecard._batching_config(config, None) is config

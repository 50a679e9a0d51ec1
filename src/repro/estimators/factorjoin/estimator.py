"""FactorJoin inference: join-size estimation over the factor graph.

At query time a factor graph is derived from the query's join tree.  Each
table node carries its BN-estimated, *filtered* per-bucket distribution over
its join keys; messages propagate bottom-up: a child subtree's per-bucket
tuple weights divided by the bucket's joint-domain NDV give the expected
fan-out multiplier per parent row whose key falls in that bucket (uniform
spread within a bucket -- exactly the granularity the bucketization trades
accuracy for).  This expected-value propagation is the estimate the Q-Error
experiments use.

Join queries run through **shared-belief inference plans**
(:mod:`repro.estimators.factorjoin.plans`): per table, one sweep of the
model's :class:`~repro.estimators.bn.inference.BNInferenceContext` carries
a column for every distinct (table, predicate set) scope of the batch plus
one per OR-expansion term, and every join-key distribution, local
selectivity and OR-group correction is read from it.  A single query is a
batch of one.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.estimators.bn.estimator import (
    BNCountEstimator,
    or_expansion_term_predicates,
    or_expansion_terms,
    table_or_groups,
)
from repro.estimators.bn.model import TreeBayesNet, fit_tree_bn, new_evidence_cache
from repro.estimators.factorjoin.buckets import JoinBucketizer
from repro.estimators.factorjoin.plans import (
    ArtifactSource,
    CachedArtifactSource,
    PassStats,
    PlanArtifactSource,
    QueryInferencePlans,
    TableInferencePlan,
)
from repro.estimators.jointree import JoinTree, build_join_tree
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition, TablePredicate
from repro.storage.catalog import Catalog
from repro.utils.lru import GenerationLRU

#: Floor applied to local selectivities before they are used as divisors
#: when conditioning a join-key distribution.  One constant for both
#: ``_subtree_weights`` and ``_root_estimate`` (they used to disagree:
#: 1e-12 vs 0.0, the latter relying on IEEE inf propagation for empty
#: filters).  BN selectivities are already clipped to [0, 1], so flooring
#: only at the division sites leaves all other arithmetic untouched.
SELECTIVITY_FLOOR = 1e-12

#: A scope's OR expansion rides in its table's sweep up to this many
#: conjunctive terms; wider expansions are swept on their own, this many
#: columns at a time.  Real queries carry 1-2 small groups, so this only
#: guards pathological batches from blowing up the evidence width.
MAX_FOLDED_TERMS = 32

#: One evidence column of a table sweep: the plan's own scope (``None``)
#: or one conjunctive term of its OR expansion.
_SweepColumn = tuple[TableInferencePlan, tuple[TablePredicate, ...] | None]


def _filtered(query: CardQuery) -> bool:
    """Whether estimating ``query`` takes a sweep column at all."""
    return bool(query.predicates or query.or_groups)


class FactorJoinEstimator(CountEstimator):
    """ByteCard's COUNT estimator: per-table BNs + join buckets.

    Handles single-table queries directly through the BNs and join queries
    through factor-graph propagation, so it is a drop-in COUNT estimator for
    the whole workload.
    """

    name = "bytecard"

    def __init__(
        self,
        catalog: Catalog,
        models: dict[str, TreeBayesNet],
        bucketizer: JoinBucketizer,
        metrics: MetricsRegistry | None = None,
        plan_cache: GenerationLRU | None = None,
        evidence_cache: GenerationLRU | None = None,
    ):
        self.catalog = catalog
        self.models = models
        self.bucketizer = bucketizer
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        # Both caches key their entries by model (context token), so
        # ByteCard hands every rebuilt estimator the same instances.
        #: cross-query plan scopes (none: scopes are shared per batch only)
        self.plan_cache = plan_cache
        self._shared_source = (
            None if plan_cache is None else CachedArtifactSource(plan_cache)
        )
        #: compiled predicate->bin-mask vectors (a private cache by default)
        self.evidence_cache = (
            evidence_cache
            if evidence_cache is not None
            else new_evidence_cache(self.metrics)
        )
        self._bn = BNCountEstimator(
            models, evidence_cache=self.evidence_cache, catalog=catalog
        )
        self._local = threading.local()
        if self.metrics.enabled:
            # Pre-register so dashboards (and pass-ratio deltas) see zeros
            # before the first join estimate rather than missing series.
            self.metrics.counter("bn_passes_total")
            self.metrics.counter("bn_passes_saved_total")
            self.metrics.counter("bn_kernel_batches_total")
            self.metrics.counter("bn_kernel_queries_total")
        # The sweep schedule is compiled with the model's inference context,
        # once per model generation: a model the loader already initialised
        # (every table a refresh() left untouched) is not compiled again.
        build_seconds = self.metrics.histogram("bn_kernel_build_seconds")
        for model in models.values():
            if model.context is None:
                start = time.perf_counter()
                model.init_context()
                build_seconds.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        catalog: Catalog,
        filter_columns: dict[str, list[str]],
        num_buckets: int = 200,
        max_bins: int = 64,
        sample_rows: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "FactorJoinEstimator":
        """Offline phase: build join buckets, then per-table BNs.

        Join-key columns are added to each table's modeled columns and
        discretized on the class's bucket edges, so the BN marginal over a
        join key *is* the filtered bucket distribution FactorJoin needs.
        """
        bucketizer = JoinBucketizer(catalog, num_buckets=num_buckets)
        models: dict[str, TreeBayesNet] = {}
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            join_keys = bucketizer.join_key_columns(table_name)
            columns = list(
                dict.fromkeys(filter_columns.get(table_name, []) + join_keys)
            )
            if not columns:
                continue
            bucket_edges = {
                key: bucketizer.edges_for(table_name, key) for key in join_keys
            }
            models[table_name] = fit_tree_bn(
                table,
                columns,
                max_bins=max_bins,
                bucket_edges=bucket_edges,
                sample_rows=sample_rows,
            )
        return cls(catalog, models, bucketizer, metrics=metrics)

    # ------------------------------------------------------------------
    def model_for(self, table: str) -> TreeBayesNet:
        try:
            return self.models[table]
        except KeyError:
            raise EstimationError(f"no model for table {table!r}") from None

    @property
    def last_pass_stats(self) -> PassStats | None:
        """Pass accounting of this thread's most recent join estimate."""
        return getattr(self._local, "last_stats", None)

    def _record_pass_stats(self, stats: PassStats) -> None:
        self._local.last_stats = stats
        if stats.executed:
            self.metrics.counter("bn_passes_total").inc(stats.executed)
        if stats.saved:
            self.metrics.counter("bn_passes_saved_total").inc(stats.saved)

    def _count_sweep(self, columns: int) -> None:
        if columns and self.metrics.enabled:
            self.metrics.counter("bn_kernel_batches_total").inc()
            self.metrics.counter("bn_kernel_queries_total").inc(columns)

    def selectivity(self, query: CardQuery) -> float:
        if not query.is_single_table():
            raise EstimationError("selectivity() is defined for single tables")
        self._local.last_stats = None
        self._count_sweep(_filtered(query))
        return self._bn.selectivity(query)

    def estimate_count(self, query: CardQuery) -> float:
        if query.is_single_table():
            return self.estimate_count_batch(query.tables[0], [query])[0]
        return self.estimate_join_batch([query])[0]

    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """Batched COUNT estimation: one column per query.

        Single-table batches (all on ``table``) go straight to the table's
        BN; a batch holding any join runs through :meth:`estimate_join_batch`
        so its plans share belief passes.
        """
        if any(not query.is_single_table() for query in queries):
            return self.estimate_join_batch(queries)
        self._local.last_stats = None
        self._count_sweep(sum(map(_filtered, queries)))
        return self._bn.estimate_count_batch(table, queries)

    def estimate_join_batch(self, queries: list[CardQuery]) -> list[float]:
        """Estimate a batch of join COUNT queries with shared plans.

        All queries share one artifact source, so identical (table,
        predicates) scopes are inferred once for the whole batch, and every
        table's pending scopes (plus their OR-expansion terms) are filled
        by a single sweep.  Results align with input order.
        """
        if not queries:
            return []
        stats = PassStats()
        source: ArtifactSource = self._shared_source or PlanArtifactSource()
        plans_list: list[QueryInferencePlans | None] = [
            None
            if query.is_single_table()
            else QueryInferencePlans(self.model_for, query, source, stats)
            for query in queries
        ]
        self._prime(plans_list, stats)
        results: list[float] = []
        for query, plans in zip(queries, plans_list):
            if plans is None:
                results.append(self.estimate_count(query))
            else:
                results.append(self._estimate_join(query, plans))
        self._record_pass_stats(stats)
        return results

    def _prime(
        self,
        plans_list: list[QueryInferencePlans | None],
        stats: PassStats,
    ) -> None:
        """Fill every scope the batch will read: one sweep per table."""
        pending: dict[str, dict[int, TableInferencePlan]] = {}
        for plans in plans_list:
            if plans is None:
                continue
            for table in plans.query.tables:
                plan = plans.plan_for(table)
                if plan.artifacts.beliefs is None:
                    pending.setdefault(table, {})[id(plan.artifacts)] = plan
        for table, scopes in pending.items():
            self._prime_table(table, list(scopes.values()), stats)

    def _prime_table(
        self,
        table: str,
        table_plans: list[TableInferencePlan],
        stats: PassStats,
    ) -> None:
        """Fill every pending scope of ``table``.

        Each filtered scope contributes one evidence column, each OR-group
        scope one more per conjunctive expansion term, and the lot is one
        sweep -- which counts as one executed pass in ``stats`` (that is
        what actually ran), so ``PassStats.saved`` credits the folded
        scopes and terms.  Unfiltered scopes take no column: their beliefs
        are the model's prior, swept once when its context was built.
        """
        model = self.model_for(table)
        table_sweep: list[_SweepColumn] = []
        own_sweeps: list[list[_SweepColumn]] = []
        for plan in table_plans:
            if plan.base:
                table_sweep.append((plan, None))
            if plan.or_groups:
                seeded = plan.artifacts.terms
                terms = [
                    (plan, term)
                    for term in or_expansion_term_predicates(
                        plan.base, plan.or_groups
                    )
                    if term not in seeded
                ]
                if len(terms) <= MAX_FOLDED_TERMS:
                    table_sweep.extend(terms)
                else:
                    own_sweeps.extend(
                        terms[start : start + MAX_FOLDED_TERMS]
                        for start in range(0, len(terms), MAX_FOLDED_TERMS)
                    )
        # Term-only sweeps first, prior fills last: a scope's ``beliefs``
        # must be the last thing another thread sharing it sees appear.
        for columns in (*own_sweeps, table_sweep):
            if columns:
                self._sweep(model, columns, stats)
        beliefs, probability = model.init_context().prior
        for plan in table_plans:
            if not plan.base:
                artifacts = plan.artifacts
                with artifacts.lock:
                    if artifacts.beliefs is None:
                        artifacts.probability = probability
                        artifacts.beliefs = beliefs

    def _sweep(
        self,
        model: TreeBayesNet,
        columns: list[_SweepColumn],
        stats: PassStats,
    ) -> None:
        """One sweep of ``model``'s context; results filled into the plans.

        Two-pass when any column is a scope (which needs per-node beliefs),
        upward-only when all are OR terms (which need only probabilities).
        """
        context = model.init_context()
        evidence = model.evidence_for(
            [plan.base if term is None else term for plan, term in columns],
            self.evidence_cache,
        )
        rows: list[np.ndarray] = []
        if any(term is None for _plan, term in columns):
            beliefs, probabilities = context.beliefs(evidence)
            # (B, bins) per node: each scope's vectors are contiguous rows.
            rows = [np.ascontiguousarray(matrix.T) for matrix in beliefs]
            for buffer in rows:
                buffer.setflags(write=False)
        else:
            probabilities = context.selectivities(evidence)
        stats.executed += 1
        self._count_sweep(len(columns))
        # Terms before scopes: ``beliefs`` is the last field of a scope
        # that another thread sharing its artifacts sees appear.
        for column, (plan, term) in sorted(
            enumerate(columns), key=lambda item: item[1][1] is None
        ):
            artifacts = plan.artifacts
            probability = float(probabilities[column])
            with artifacts.lock:
                if term is not None:
                    artifacts.terms.setdefault(term, probability)
                elif artifacts.beliefs is None:
                    artifacts.probability = probability
                    artifacts.beliefs = [buffer[column] for buffer in rows]

    def _estimate_join(
        self, query: CardQuery, plans: QueryInferencePlans
    ) -> float:
        start = time.perf_counter()
        tree = build_join_tree(query)
        total = self._root_estimate(tree, query.tables[0], plans)
        self.metrics.histogram("bn_join_inference_seconds").observe(
            time.perf_counter() - start
        )
        return float(max(total, 0.0))

    def estimation_overhead(self, query: CardQuery) -> float:
        # Shared-plan cost model: one beliefs pass per (table, predicates)
        # scope, plus the extra inclusion-exclusion terms OR-groups add,
        # plus per-join bucket-vector algebra.  Call-site counts no longer
        # matter -- every consumer of a scope reads the same pass.
        passes = len(query.tables)
        for table in query.tables:
            passes += or_expansion_terms(table_or_groups(query, table))
        return 0.05 * passes + 0.01 * len(query.joins)

    @property
    def nbytes(self) -> int:
        """Join-bucket footprint only (BN sizes are reported separately)."""
        return self.bucketizer.nbytes

    # ------------------------------------------------------------------
    # Factor-graph propagation
    # ------------------------------------------------------------------
    def _filtered_distribution(
        self, table: str, column: str, plans: QueryInferencePlans
    ) -> np.ndarray:
        """``P(column in bucket AND local predicates)`` via the table's BN."""
        plan = plans.plan_for(table)
        distribution = plan.distribution(column)
        factor = plan.or_factor()
        if factor != 1.0:
            distribution = distribution * factor
        return np.maximum(distribution, 0.0)

    def _subtree_weights(
        self,
        tree: JoinTree,
        table: str,
        parent_join: JoinCondition,
        plans: QueryInferencePlans,
    ) -> np.ndarray:
        """Per-bucket tuple weights of ``table``'s subtree, keyed on the
        column joining ``table`` to its parent (memoized per query)."""
        return plans.subtree_weights(
            table,
            parent_join,
            lambda: self._subtree_weights_impl(tree, table, parent_join, plans),
        )

    def _subtree_weights_impl(
        self,
        tree: JoinTree,
        table: str,
        parent_join: JoinCondition,
        plans: QueryInferencePlans,
    ) -> np.ndarray:
        parent_column = parent_join.side_for(table)
        rows = len(self.catalog.table(table))
        weights = rows * self._filtered_distribution(table, parent_column, plans)
        selectivity = max(
            plans.plan_for(table).table_selectivity(), SELECTIVITY_FLOOR
        )

        for child, join in tree[table]:
            own_column = join.side_for(table)
            child_weights = self._subtree_weights(tree, child, join, plans)
            multiplier = self._fanout_multiplier(child, join, child_weights)
            if own_column == parent_column:
                weights = weights * multiplier
            else:
                # Different join key: marginalize the multiplier over the
                # key's filtered distribution (conditional independence of
                # join keys given the filters -- FactorJoin's reduced form).
                key_dist = self._filtered_distribution(table, own_column, plans)
                conditional = key_dist / selectivity
                scalar = float(np.sum(conditional * multiplier))
                weights = weights * scalar
        return weights

    def _fanout_multiplier(
        self, child: str, join: JoinCondition, child_weights: np.ndarray
    ) -> np.ndarray:
        """Expected matches per parent row, per bucket: the child tuples
        spread over the bucket's joint-domain values."""
        cls = self.bucketizer.class_for(child, join.side_for(child))
        return child_weights / cls.domain_ndv

    def _root_estimate(
        self, tree: JoinTree, root: str, plans: QueryInferencePlans
    ) -> float:
        """Combine the root's children; bucket-wise over the dominant key."""
        children = tree[root]
        rows = len(self.catalog.table(root))
        selectivity = plans.plan_for(root).table_selectivity()
        if not children:
            return rows * selectivity
        # Group children by the root-side join column.
        by_column: dict[str, list[tuple[str, JoinCondition]]] = {}
        for child, join in children:
            by_column.setdefault(join.side_for(root), []).append((child, join))
        # The column with the most children is handled bucket-wise; the rest
        # contribute scalar multipliers via their filtered distributions.
        keyed_column = max(by_column, key=lambda c: len(by_column[c]))
        weights = rows * self._filtered_distribution(root, keyed_column, plans)
        local_selectivity = max(selectivity, SELECTIVITY_FLOOR)
        for child, join in by_column[keyed_column]:
            child_weights = self._subtree_weights(tree, child, join, plans)
            weights = weights * self._fanout_multiplier(child, join, child_weights)
        scalar = 1.0
        for column, group in by_column.items():
            if column == keyed_column:
                continue
            key_dist = self._filtered_distribution(root, column, plans)
            conditional = key_dist / local_selectivity
            for child, join in group:
                child_weights = self._subtree_weights(tree, child, join, plans)
                multiplier = self._fanout_multiplier(child, join, child_weights)
                scalar *= float(np.sum(conditional * multiplier))
        return float(weights.sum() * scalar)

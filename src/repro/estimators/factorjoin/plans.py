"""Shared-belief inference plans: one BN sweep per (table, predicates).

One two-pass sweep yields *every* node's joint vector at once, so all the
consumers of one (table, AND-predicates) scope within a join query -- and
across the queries of a batch -- read from a single sweep column:

* join-key filtered distributions, for every key the query touches;
* the local AND selectivity (the root belief total comes free);
* OR-group inclusion-exclusion terms, swept as extra columns beside it.

:class:`TableInferencePlan` is the reader of one such scope.  Its results
live in a :class:`PlanArtifacts` container that the estimator fills before
any plan reads it and that can be shared across queries (via a plan cache,
:class:`CachedArtifactSource`) and across threads -- the container is
lock-guarded and filled at most once.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Protocol, Sequence

import numpy as np

from repro.estimators.bn.estimator import (
    _selectivity_with_or_groups,
    table_or_groups,
)
from repro.estimators.bn.model import TreeBayesNet
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery, JoinCondition, TablePredicate
from repro.utils.lru import GenerationLRU


class PassStats:
    """BN passes requested (one per consumer read) vs sweeps actually run."""

    __slots__ = ("requested", "executed")

    def __init__(self, requested: int = 0, executed: int = 0):
        self.requested = requested
        self.executed = executed

    @property
    def saved(self) -> int:
        return max(0, self.requested - self.executed)

    def snapshot(self) -> "PassStats":
        return PassStats(self.requested, self.executed)


class PlanArtifacts:
    """Fill-once results of one (table, base-predicates, OR-groups) scope.

    Instances may be shared by many plans (cross-query cache hits) and many
    threads; every field except ``lock`` is written under ``lock`` and only
    transitions empty -> filled.  ``beliefs`` is written last: a scope whose
    ``beliefs`` is set is complete and may be read without further checks.
    """

    __slots__ = (
        "lock",
        "beliefs",
        "probability",
        "terms",
        "or_selectivity",
        "or_term_count",
    )

    def __init__(self):
        self.lock = threading.Lock()
        #: per-column joint vectors of the scope's sweep column (None = not run)
        self.beliefs: Sequence[np.ndarray] | None = None
        #: P(base predicates) -- the root belief total of that same column
        self.probability: float = 0.0
        #: OR-expansion term selectivities keyed by predicate tuple
        self.terms: dict[tuple[TablePredicate, ...], float] = {}
        #: inclusion-exclusion result over the OR-groups (None = not run)
        self.or_selectivity: float | None = None
        #: conjunctive terms the expansion evaluated (for pass accounting)
        self.or_term_count: int = 0


class ArtifactSource(Protocol):
    """Anything that can hand out shared artifacts for a plan scope."""

    def artifacts_for(
        self,
        model: TreeBayesNet,
        base: list[TablePredicate],
        or_groups: list[list[TablePredicate]],
    ) -> PlanArtifacts: ...


class PlanArtifactSource:
    """Artifacts shared across the queries of one batch, then dropped."""

    def __init__(self):
        self._lock = threading.Lock()
        self._artifacts: dict[Hashable, PlanArtifacts] = {}

    def artifacts_for(
        self,
        model: TreeBayesNet,
        base: list[TablePredicate],
        or_groups: list[list[TablePredicate]],
    ) -> PlanArtifacts:
        # exact identity: order-sensitive, unlike the plan cache's key
        key = (model.table_name, tuple(base), tuple(map(tuple, or_groups)))
        with self._lock:
            artifacts = self._artifacts.get(key)
            if artifacts is None:
                artifacts = self._artifacts[key] = PlanArtifacts()
            return artifacts


def new_plan_cache(registry: MetricsRegistry | None = None) -> GenerationLRU:
    """A cross-query plan cache of 1024 scopes, mirrored as ``plan_cache_*_total``."""
    return GenerationLRU(1024, registry, prefix="plan_cache")


class CachedArtifactSource:
    """Artifacts shared across queries through a plan cache.

    A scope is keyed by its model's context token plus the canonical
    predicate fingerprint, so two queries filtering a table the same way
    share one set of belief vectors, and a scope built from a replaced
    model can never be handed out again.
    """

    def __init__(self, cache: GenerationLRU):
        # Imported here: the serving package imports the estimators.
        from repro.serving.fingerprint import table_scope_fingerprint

        self.cache = cache
        self._fingerprint = table_scope_fingerprint

    def artifacts_for(
        self,
        model: TreeBayesNet,
        base: list[TablePredicate],
        or_groups: list[list[TablePredicate]],
    ) -> PlanArtifacts:
        key = (
            model.init_context().token,
            self._fingerprint(model.table_name, base, or_groups),
        )
        return self.cache.get_or_create(key, PlanArtifacts)


class TableInferencePlan:
    """One table's shared-belief scope within a query (or a batch).

    A reader: the estimator fills ``artifacts`` (beliefs, probability and
    every OR-expansion term) before the factor-graph walk starts.  Every
    consumer method bumps ``stats.requested`` by the passes a
    sweep-per-read design would spend there; ``stats.executed`` counts the
    sweeps that actually ran, so ``stats.saved`` is the amortization win.
    """

    def __init__(
        self,
        model: TreeBayesNet,
        base: list[TablePredicate],
        or_groups: list[list[TablePredicate]],
        stats: PassStats,
        artifacts: PlanArtifacts,
    ):
        self.model = model
        self.base = list(base)
        self.or_groups = [list(group) for group in or_groups]
        self.stats = stats
        self.artifacts = artifacts

    def distribution(self, column: str) -> np.ndarray:
        """``P(column in bin, base predicates)``; one read."""
        self.stats.requested += 1
        beliefs = self.artifacts.beliefs
        assert beliefs is not None, "scope read before it was primed"
        return beliefs[self.model.column_index(column)]

    def and_selectivity(self) -> float:
        """``P(base predicates)``; an empty conjunction is exactly 1.0."""
        if not self.base:
            return 1.0
        self.stats.requested += 1
        return self.artifacts.probability

    def term_selectivity(
        self, predicates: tuple[TablePredicate, ...]
    ) -> float:
        """One conjunctive term of the OR expansion; one read."""
        self.stats.requested += 1
        return self.artifacts.terms[predicates]

    def table_selectivity(self) -> float:
        """Selectivity including OR-groups (memoized inclusion-exclusion)."""
        if not self.or_groups:
            return self.and_selectivity()
        artifacts = self.artifacts
        if artifacts.or_selectivity is not None:
            # A sweep-per-read design re-runs the whole expansion here.
            self.stats.requested += artifacts.or_term_count
            return artifacts.or_selectivity
        calls = 0

        def term(predicates: Sequence[TablePredicate]) -> float:
            nonlocal calls
            calls += 1
            return self.term_selectivity(tuple(predicates))

        value = _selectivity_with_or_groups(
            self.model, self.base, self.or_groups, selectivity_fn=term
        )
        with artifacts.lock:
            if artifacts.or_selectivity is None:
                artifacts.or_selectivity = value
                artifacts.or_term_count = calls
        return value

    def or_factor(self) -> float:
        """OR-group correction: with-groups over AND-only selectivity.

        The bucket distribution is computed under the AND predicates only;
        OR-groups scale it by their conditional selectivity (assumed
        independent of the join key's bucket).
        """
        if not self.or_groups:
            return 1.0
        with_groups = self.table_selectivity()
        without_groups = self.and_selectivity()
        if without_groups <= 0.0:
            return 0.0
        return with_groups / without_groups


class QueryInferencePlans:
    """All shared-belief plans serving one join query (or one batch).

    Also memoizes subtree weights keyed on (table, normalized parent join),
    so re-walks of the factor graph reuse whole messages, not just
    distributions.  ``stats`` may be shared across the queries of a batch so
    batched priming passes are accounted once.
    """

    def __init__(
        self,
        model_for: Callable[[str], TreeBayesNet],
        query: CardQuery,
        source: ArtifactSource,
        stats: PassStats,
    ):
        self.query = query
        self._model_for = model_for
        self._source = source
        self.stats = stats
        self._plans: dict[str, TableInferencePlan] = {}
        self._subtree: dict[
            tuple[str, tuple[tuple[str, str], tuple[str, str]]], np.ndarray
        ] = {}

    def plan_for(self, table: str) -> TableInferencePlan:
        plan = self._plans.get(table)
        if plan is None:
            model = self._model_for(table)
            base = [p for p in self.query.predicates if p.table == table]
            or_groups = table_or_groups(self.query, table)
            plan = TableInferencePlan(
                model,
                base,
                or_groups,
                self.stats,
                self._source.artifacts_for(model, base, or_groups),
            )
            self._plans[table] = plan
        return plan

    def subtree_weights(
        self,
        table: str,
        parent_join: JoinCondition,
        compute: Callable[[], np.ndarray],
    ) -> np.ndarray:
        key = (table, parent_join.normalized())
        weights = self._subtree.get(key)
        if weights is None:
            weights = compute()
            self._subtree[key] = weights
        return weights

"""Estimation strategies: adapter, fallback chains, and the query router.

The optimizer and the serving core speak only the
:class:`~repro.estimators.base.EstimationStrategy` protocol.  This module
supplies everything that turns concrete estimators into routable
strategies:

* :func:`as_strategy` / :class:`EstimatorStrategy` -- adapts any
  duck-typed :class:`CountEstimator` to the protocol.  This adapter is the
  **single remaining home of ``getattr`` capability discovery**: it probes
  once at construction and publishes the result as the protocol's
  capability flags, so consumers never probe again;
* :class:`LearnedStrategy` / :class:`TraditionalStrategy` /
  :class:`UpperBoundStrategy` -- the three named strategies of the
  framework: the learned BN/FactorJoin/RBX stack (via
  :class:`repro.core.ByteCard`), the Selinger/histogram fallback, and the
  UES-style never-underestimate bound for risk-averse routing;
* :class:`StrategyChain` -- a deterministic fallback chain: links are
  tried in order, an :class:`~repro.errors.EstimationError` (or
  ``NotImplementedError``) falls through to the next link, and answers
  from a non-head link carry ``fallback-<strategy>`` provenance;
* :class:`StrategyRouter` -- picks a chain per query class (table set,
  predicate shape, join-ness, tenant/risk tag) via ordered
  :class:`RoutingRule`\\ s, derates strategies whose observed error mass
  (runtime feedback or monitor assessments) exceeds a budget, and is
  itself a strategy -- drop it into an optimizer, a serving core, or an
  engine suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DetailError, EstimationError
from repro.estimators.base import (
    CountEstimator,
    EstimateDetail,
    EstimationStrategy,
)
from repro.estimators.ues import UpperBoundEstimator
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery

__all__ = [
    "EstimatorStrategy",
    "LearnedStrategy",
    "QueryClass",
    "RoutingRule",
    "StrategyChain",
    "StrategyRouter",
    "TraditionalStrategy",
    "UpperBoundStrategy",
    "as_strategy",
    "classify_query",
]


def as_strategy(
    estimator: CountEstimator, strategy_id: str | None = None
) -> EstimationStrategy:
    """The protocol view of an estimator (identity for strategies)."""
    if isinstance(estimator, EstimationStrategy):
        if strategy_id is not None and strategy_id != estimator.strategy_id:
            raise ValueError(
                f"estimator is already strategy {estimator.strategy_id!r}; "
                f"cannot re-register as {strategy_id!r}"
            )
        return estimator
    return EstimatorStrategy(estimator, strategy_id=strategy_id)


def _as_detail(result) -> EstimateDetail:
    """Normalize a duck-typed detail result ((value, source) tuples from
    the serving tier, ServedEstimate-likes with .value/.source)."""
    if isinstance(result, EstimateDetail):
        return result
    if isinstance(result, tuple):
        value, source = result
        return EstimateDetail(float(value), str(source))
    return EstimateDetail(float(result.value), str(result.source))


class EstimatorStrategy(EstimationStrategy):
    """Adapter: any :class:`CountEstimator` behind the strategy protocol.

    Capability discovery happens **here, once, at construction** -- the
    probes the optimizer and serving core used to run per call are folded
    into the protocol's explicit flags.  The optional ``shard_selectivity``
    of the underlying estimator is bound straight through as an instance
    attribute, so identities like
    ``strategy.shard_selectivity == bytecard.shard_selectivity`` hold.
    """

    def __init__(self, estimator: CountEstimator, strategy_id: str | None = None):
        self.estimator = estimator
        self.strategy_id = strategy_id or getattr(estimator, "name", "estimator")
        self.name = self.strategy_id
        self.catalog = getattr(estimator, "catalog", None)
        self._selectivity_detail_fn = getattr(
            estimator, "selectivity_detail", None
        )
        self._count_detail_fn = getattr(estimator, "estimate_count_detail", None)
        shard_fn = getattr(estimator, "shard_selectivity", None)
        self.supports_shard_routing = callable(shard_fn)
        if self.supports_shard_routing:
            self.shard_selectivity = shard_fn

    # -- plain task interface ------------------------------------------
    def estimate_count(self, query: CardQuery) -> float:
        return self.estimator.estimate_count(query)

    def selectivity(self, query: CardQuery) -> float:
        return self.estimator.selectivity(query)

    def estimation_overhead(self, query: CardQuery) -> float:
        return self.estimator.estimation_overhead(query)

    # -- provenance-carrying interface ---------------------------------
    def selectivity_detail(self, query: CardQuery) -> EstimateDetail:
        if self._selectivity_detail_fn is None:
            return EstimateDetail(float(self.estimator.selectivity(query)), "direct")
        try:
            return _as_detail(self._selectivity_detail_fn(query))
        except DetailError:
            raise
        except (EstimationError, NotImplementedError) as exc:
            raise DetailError(f"selectivity_detail failed: {exc}") from exc

    def estimate_count_detail(self, query: CardQuery) -> EstimateDetail:
        if self._count_detail_fn is None:
            return EstimateDetail(
                float(self.estimator.estimate_count(query)), "direct"
            )
        try:
            return _as_detail(self._count_detail_fn(query))
        except DetailError:
            raise
        except (EstimationError, NotImplementedError) as exc:
            raise DetailError(f"estimate_count_detail failed: {exc}") from exc

    @property
    def last_pass_stats(self):
        return getattr(self.estimator, "last_pass_stats", None)


class LearnedStrategy(EstimatorStrategy):
    """The learned stack (BN + FactorJoin + RBX) as a named strategy."""

    def __init__(self, estimator: CountEstimator):
        super().__init__(estimator, strategy_id="learned")


class TraditionalStrategy(EstimatorStrategy):
    """The Selinger/histogram fallback as a named strategy."""

    def __init__(self, estimator_or_catalog):
        if not isinstance(estimator_or_catalog, CountEstimator):
            from repro.estimators.traditional.selinger import SelingerEstimator

            estimator_or_catalog = SelingerEstimator(estimator_or_catalog)
        super().__init__(estimator_or_catalog, strategy_id="traditional")


class UpperBoundStrategy(EstimatorStrategy):
    """The UES-style never-underestimate bound as a named strategy."""

    def __init__(self, estimator_or_catalog):
        if not isinstance(estimator_or_catalog, UpperBoundEstimator):
            estimator_or_catalog = UpperBoundEstimator(estimator_or_catalog)
        super().__init__(estimator_or_catalog, strategy_id="upper_bound")


class StrategyChain(EstimationStrategy):
    """Ordered, deterministic fallback across strategies.

    Each call tries the links in order; a link failing with
    :class:`EstimationError` (:class:`DetailError` included -- a broken
    provenance path must not take the whole chain down) or
    ``NotImplementedError`` falls through to the next.  Answers from the
    head keep their own provenance; answers from a later link are labelled
    ``fallback-<strategy_id>`` so plan provenance shows exactly which
    strategy really answered.  Fallthroughs are counted per abandoned
    strategy in ``strategy_fallthroughs_total``.
    """

    def __init__(self, strategies, registry: MetricsRegistry | None = None):
        links = tuple(as_strategy(s) for s in strategies)
        if not links:
            raise ValueError("a strategy chain needs at least one link")
        self.links = links
        self.strategy_id = ">".join(link.strategy_id for link in links)
        self.name = self.strategy_id
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.catalog = next(
            (link.catalog for link in links if link.catalog is not None), None
        )
        self.supports_shard_routing = any(
            link.supports_shard_routing for link in links
        )

    def _note_fallthrough(self, link: EstimationStrategy) -> None:
        self.registry.counter(
            "strategy_fallthroughs_total", strategy=link.strategy_id
        ).inc()

    def _exhausted(self, last: Exception | None) -> EstimationError:
        error = EstimationError(
            f"no strategy in chain {self.strategy_id!r} answered"
        )
        error.__cause__ = last
        return error

    # -- plain task interface ------------------------------------------
    def estimate_count(self, query: CardQuery) -> float:
        last: Exception | None = None
        for link in self.links:
            try:
                return float(link.estimate_count(query))
            except (EstimationError, NotImplementedError) as exc:
                last = exc
                self._note_fallthrough(link)
        raise self._exhausted(last)

    def selectivity(self, query: CardQuery) -> float:
        last: Exception | None = None
        for link in self.links:
            try:
                return float(link.selectivity(query))
            except (EstimationError, NotImplementedError) as exc:
                last = exc
                self._note_fallthrough(link)
        raise self._exhausted(last)

    def estimation_overhead(self, query: CardQuery) -> float:
        return self.links[0].estimation_overhead(query)

    # -- provenance-carrying interface ---------------------------------
    def selectivity_detail(self, query: CardQuery) -> EstimateDetail:
        last: Exception | None = None
        for index, link in enumerate(self.links):
            try:
                detail = link.selectivity_detail(query)
            except (EstimationError, NotImplementedError) as exc:
                last = exc
                self._note_fallthrough(link)
                continue
            if index == 0:
                return detail
            return EstimateDetail(detail.value, f"fallback-{link.strategy_id}")
        raise self._exhausted(last)

    def estimate_count_detail(self, query: CardQuery) -> EstimateDetail:
        last: Exception | None = None
        for index, link in enumerate(self.links):
            try:
                detail = link.estimate_count_detail(query)
            except (EstimationError, NotImplementedError) as exc:
                last = exc
                self._note_fallthrough(link)
                continue
            if index == 0:
                return detail
            return EstimateDetail(detail.value, f"fallback-{link.strategy_id}")
        raise self._exhausted(last)

    # -- shard routing --------------------------------------------------
    def shard_selectivity(
        self, table: str, shard: int, query: CardQuery
    ) -> float | None:
        for link in self.links:
            if not link.supports_shard_routing:
                continue
            try:
                value = link.shard_selectivity(table, shard, query)
            except EstimationError:
                continue
            if value is not None:
                return value
        return None

    @property
    def last_pass_stats(self):
        return self.links[0].last_pass_stats


def classify_query(query: CardQuery, risk_tag: str | None = None) -> "QueryClass":
    """The routing features of one query."""
    ops = {pred.op.value for pred in query.predicates}
    for group in query.or_groups:
        ops.update(pred.op.value for pred in group)
    return QueryClass(
        tables=tuple(sorted(query.tables)),
        num_tables=len(query.tables),
        has_joins=bool(query.joins),
        ops=frozenset(ops),
        risk_tag=risk_tag,
    )


@dataclass(frozen=True)
class QueryClass:
    """What the router sees of a query: shape, scope, and tenant tag."""

    tables: tuple[str, ...]
    num_tables: int
    has_joins: bool
    ops: frozenset[str]
    risk_tag: str | None = None


@dataclass(frozen=True)
class RoutingRule:
    """One ordered routing rule: conditions ANDed, first match wins.

    Unset conditions always match.  ``tables``/``ops`` are subset
    conditions (the query's tables/operators must all be covered);
    ``risk_tags`` matches tagged sessions only.
    """

    chain: tuple[str, ...]
    tables: frozenset[str] | None = None
    min_tables: int = 1
    max_tables: int | None = None
    requires_joins: bool | None = None
    ops: frozenset[str] | None = None
    risk_tags: frozenset[str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))
        for name in ("tables", "ops", "risk_tags"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, frozenset(value))

    def matches(self, query_class: QueryClass) -> bool:
        if query_class.num_tables < self.min_tables:
            return False
        if self.max_tables is not None and query_class.num_tables > self.max_tables:
            return False
        if (
            self.requires_joins is not None
            and query_class.has_joins != self.requires_joins
        ):
            return False
        if self.tables is not None and not set(query_class.tables) <= self.tables:
            return False
        if self.ops is not None and not query_class.ops <= self.ops:
            return False
        if self.risk_tags is not None and (
            query_class.risk_tag is None
            or query_class.risk_tag not in self.risk_tags
        ):
            return False
        return True


class StrategyRouter(EstimationStrategy):
    """Per-query-class strategy selection with deterministic fallbacks.

    The router holds named strategies, ordered :class:`RoutingRule`\\ s, and
    an observed-error scorecard.  For each query it classifies the query,
    picks the first matching rule's chain (else the default chain), then
    *derates* the chain head if its accumulated log-Q-Error mass on any of
    the query's tables exceeds ``derate_mass`` -- the head rotates to the
    back and the next strategy leads.  Rotation is deterministic: same
    scorecard, same query, same chain.

    The scorecard learns from three sources: explicit
    :meth:`observe_qerror` calls, the runtime feedback log
    (:meth:`refresh_from_feedback` -- per-strategy error mass of executed
    estimates), and monitor assessments (:meth:`monitor_listener`, wired
    via ``ModelMonitor.add_assessment_listener``).

    A router is itself an :class:`EstimationStrategy`: plugged into an
    optimizer or serving core, every call routes, and
    :meth:`cache_scope` returns the routed chain's identity so re-routing
    never serves a stale cached estimate from another strategy.
    """

    def __init__(
        self,
        strategies=None,
        rules=(),
        default_chain=None,
        registry: MetricsRegistry | None = None,
        feedback=None,
        derate_mass: float | None = None,
        default_risk_tag: str | None = None,
    ):
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.feedback = feedback
        self.derate_mass = derate_mass
        self.default_risk_tag = default_risk_tag
        self.strategy_id = "router"
        self.name = "router"
        self.rules: list[RoutingRule] = list(rules)
        self._strategies: dict[str, EstimationStrategy] = {}
        self._chains: dict[tuple[str, ...], StrategyChain] = {}
        #: (strategy_id, table) -> accumulated log-Q-Error mass
        self.scorecard: dict[tuple[str, str], float] = {}
        if strategies:
            items = (
                strategies.items()
                if hasattr(strategies, "items")
                else ((None, s) for s in strategies)
            )
            for sid, strategy in items:
                self.register(strategy, strategy_id=sid)
        self.default_chain: tuple[str, ...] = (
            tuple(default_chain) if default_chain else tuple(self._strategies)
        )

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(
        self, strategy: CountEstimator, strategy_id: str | None = None
    ) -> EstimationStrategy:
        """Register one strategy (adapting a bare estimator if needed)."""
        strategy = as_strategy(strategy, strategy_id=strategy_id)
        self._strategies[strategy.strategy_id] = strategy
        if self.catalog is None and strategy.catalog is not None:
            self.catalog = strategy.catalog
        self.supports_shard_routing = (
            self.supports_shard_routing or strategy.supports_shard_routing
        )
        self._chains.clear()
        return strategy

    def strategies(self) -> dict[str, EstimationStrategy]:
        return dict(self._strategies)

    def chain(self, ids) -> StrategyChain:
        """The (cached) chain over the named strategies, in order."""
        key = tuple(ids)
        chain = self._chains.get(key)
        if chain is None:
            missing = [sid for sid in key if sid not in self._strategies]
            if missing:
                raise KeyError(f"unknown strategies {missing!r}")
            chain = StrategyChain(
                [self._strategies[sid] for sid in key], registry=self.registry
            )
            self._chains[key] = chain
        return chain

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def classify(self, query: CardQuery, risk_tag: str | None = None) -> QueryClass:
        return classify_query(
            query, risk_tag if risk_tag is not None else self.default_risk_tag
        )

    def chain_for(
        self, query: CardQuery, risk_tag: str | None = None
    ) -> StrategyChain:
        """The fallback chain this query routes to."""
        query_class = self.classify(query, risk_tag)
        ids = self.default_chain
        for rule in self.rules:
            if rule.matches(query_class):
                ids = rule.chain
                break
        ids = self._derate(ids, query_class)
        if ids and self.registry.enabled:
            self.registry.counter("strategy_routed_total", strategy=ids[0]).inc()
        return self.chain(ids)

    def _derate(
        self, ids: tuple[str, ...], query_class: QueryClass
    ) -> tuple[str, ...]:
        if self.derate_mass is None or len(ids) < 2:
            return ids
        rotated = list(ids)
        for _ in range(len(rotated) - 1):
            head_mass = max(
                (self.error_mass(rotated[0], t) for t in query_class.tables),
                default=0.0,
            )
            if head_mass <= self.derate_mass:
                break
            rotated.append(rotated.pop(0))
            self.registry.counter(
                "strategy_derated_total", strategy=rotated[-1]
            ).inc()
        return tuple(rotated)

    # ------------------------------------------------------------------
    # Learning from observed error
    # ------------------------------------------------------------------
    def error_mass(self, strategy_id: str, table: str) -> float:
        return self.scorecard.get((strategy_id, table), 0.0)

    def observe_qerror(self, strategy_id: str, tables, qerror: float) -> None:
        """Fold one observed Q-Error into the strategy's scorecard."""
        if not math.isfinite(qerror):
            return
        mass = math.log(max(float(qerror), 1.0))
        for table in tables:
            key = (strategy_id, table)
            self.scorecard[key] = self.scorecard.get(key, 0.0) + mass

    def refresh_from_feedback(self, feedback=None) -> int:
        """Replace scorecard entries with the feedback log's per-strategy
        error mass (snapshot semantics: reflects currently retained
        evidence, so healed strategies recover as old records age out).
        A strategy scope recorded as a chain id credits the chain's head
        -- the strategy that actually answered (or failed to).
        Returns the number of entries updated."""
        log = feedback if feedback is not None else self.feedback
        if log is None:
            return 0
        updated = 0
        for (scope, table), mass in log.error_mass_by_strategy().items():
            head = scope.split(">", 1)[0]
            if head in self._strategies:
                self.scorecard[(head, table)] = mass
                updated += 1
        return updated

    def monitor_listener(self, report, kind: str) -> None:
        """``ModelMonitor.add_assessment_listener`` hook: fold per-strategy
        COUNT assessments into the scorecard."""
        strategy = getattr(report, "strategy", "")
        if kind != "count" or not strategy or strategy not in self._strategies:
            return
        for q in report.qerrors:
            self.observe_qerror(strategy, (report.name,), q)

    # ------------------------------------------------------------------
    # EstimationStrategy interface (route, then delegate)
    # ------------------------------------------------------------------
    def estimate_count(self, query: CardQuery) -> float:
        return self.chain_for(query).estimate_count(query)

    def selectivity(self, query: CardQuery) -> float:
        return self.chain_for(query).selectivity(query)

    def selectivity_detail(self, query: CardQuery) -> EstimateDetail:
        return self.chain_for(query).selectivity_detail(query)

    def estimate_count_detail(self, query: CardQuery) -> EstimateDetail:
        return self.chain_for(query).estimate_count_detail(query)

    def shard_selectivity(
        self, table: str, shard: int, query: CardQuery
    ) -> float | None:
        return self.chain_for(query).shard_selectivity(table, shard, query)

    def estimation_overhead(self, query: CardQuery) -> float:
        return self.chain_for(query).estimation_overhead(query)

    def cache_scope(self, query: CardQuery) -> str:
        return self.chain_for(query).strategy_id

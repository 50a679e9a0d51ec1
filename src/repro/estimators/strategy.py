"""Estimation strategies: fallback chains and the query router.

Every :class:`~repro.estimators.base.CountEstimator` is a strategy: the
optimizer and the serving core call its methods directly, and a strategy
is *named* where it is composed -- by the keys of a chain's links, of a
router's mapping, or of :meth:`repro.core.ByteCard.strategies` (``learned``
/ ``traditional`` / ``upper_bound``).  This module composes them:

* :class:`StrategyChain` -- a deterministic fallback chain: links are
  tried in order, an :class:`~repro.errors.EstimationError` (or
  ``NotImplementedError``) falls through to the next link, and answers
  from a non-head link carry ``fallback-<strategy>`` provenance;
* :class:`StrategyRouter` -- picks a chain per query class (table set,
  predicate shape, join-ness, tenant/risk tag) via ordered
  :class:`RoutingRule`\\ s, derates strategies whose observed error mass
  (runtime feedback or monitor assessments) exceeds a budget, and is
  itself an estimator -- drop it into an optimizer, a serving core, or an
  engine suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator, EstimateDetail
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import CardQuery

__all__ = [
    "QueryClass",
    "RoutingRule",
    "StrategyChain",
    "StrategyRouter",
    "classify_query",
]


class StrategyChain(CountEstimator):
    """Ordered, deterministic fallback across named strategies.

    ``links`` maps strategy ids to estimators, in chain order; the chain's
    ``name`` joins the ids (``learned>traditional``).  Each call tries the
    links in order; a link failing with :class:`EstimationError` or
    ``NotImplementedError`` falls through to the next.  Answers from the
    head keep their own provenance; answers from a later link are labelled
    ``fallback-<strategy id>`` so plan provenance shows exactly which
    strategy really answered.  Fallthroughs are counted per abandoned
    strategy in ``strategy_fallthroughs_total``.
    """

    def __init__(
        self,
        links: Mapping[str, CountEstimator],
        registry: MetricsRegistry | None = None,
    ):
        if not links:
            raise ValueError("a strategy chain needs at least one link")
        self.links = dict(links)
        self.name = ">".join(self.links)
        self.head = next(iter(self.links.values()))
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.catalog = next(
            (link.catalog for link in self.links.values() if link.catalog is not None),
            None,
        )
        self.supports_shard_routing = any(
            link.supports_shard_routing for link in self.links.values()
        )

    def _first_answer(
        self, ask: Callable[[CountEstimator], EstimateDetail]
    ) -> EstimateDetail:
        last: Exception | None = None
        for index, (strategy_id, link) in enumerate(self.links.items()):
            try:
                detail = ask(link)
            except (EstimationError, NotImplementedError) as exc:
                last = exc
                self.registry.counter(
                    "strategy_fallthroughs_total", strategy=strategy_id
                ).inc()
                continue
            if index == 0:
                return detail
            return EstimateDetail(detail.value, f"fallback-{strategy_id}")
        error = EstimationError(f"no strategy in chain {self.name!r} answered")
        error.__cause__ = last
        raise error

    def selectivity_detail(self, query: CardQuery) -> EstimateDetail:
        return self._first_answer(lambda link: link.selectivity_detail(query))

    def estimate_count_detail(self, query: CardQuery) -> EstimateDetail:
        return self._first_answer(lambda link: link.estimate_count_detail(query))

    def selectivity(self, query: CardQuery) -> float:
        return self.selectivity_detail(query).value

    def estimate_count(self, query: CardQuery) -> float:
        return self.estimate_count_detail(query).value

    def estimation_overhead(self, query: CardQuery) -> float:
        return self.head.estimation_overhead(query)

    def shard_selectivity(
        self, table: str, shard: int, query: CardQuery
    ) -> float | None:
        for link in self.links.values():
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
        return self.head.last_pass_stats


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


class StrategyRouter(CountEstimator):
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

    A router is itself a :class:`CountEstimator`: plugged into an
    optimizer or serving core, every call routes, and :meth:`route`
    returns the routed chain, whose name is the cache scope, so re-routing
    never serves a stale cached estimate from another strategy.
    """

    name = "router"

    def __init__(
        self,
        strategies: Mapping[str, CountEstimator] | None = None,
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
        self.rules: list[RoutingRule] = list(rules)
        #: strategy id -> estimator; the ids name chain links and scopes
        self._strategies: dict[str, CountEstimator] = dict(strategies or {})
        self._chains: dict[tuple[str, ...], StrategyChain] = {}
        #: (strategy_id, table) -> accumulated log-Q-Error mass
        self.scorecard: dict[tuple[str, str], float] = {}
        self.catalog = next(
            (s.catalog for s in self._strategies.values() if s.catalog is not None),
            None,
        )
        self.supports_shard_routing = any(
            s.supports_shard_routing for s in self._strategies.values()
        )
        self.default_chain: tuple[str, ...] = (
            tuple(default_chain) if default_chain else tuple(self._strategies)
        )

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def strategies(self) -> dict[str, CountEstimator]:
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
                {sid: self._strategies[sid] for sid in key}, registry=self.registry
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
    # CountEstimator interface (route, then delegate)
    # ------------------------------------------------------------------
    def route(self, query: CardQuery) -> StrategyChain:
        return self.chain_for(query)

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

"""Estimator interfaces: the ABCs and the estimation-strategy protocol.

Two estimation tasks exist in the paper: ``COUNT`` (row counts of filtered
joins, driving materialization and join ordering) and ``COUNT-DISTINCT``
(NDV, driving hash-table pre-sizing).  Every estimator also reports an
*estimation overhead* in the engine's abstract cost units, because the
paper's end-to-end result (Figure 5) hinges on the fact that the
sample-based method's good Q-Error does not translate into good latency --
its per-query estimation cost is too high.

This module is the single home of the estimator-facing contracts.  Beyond
the two task ABCs it defines :class:`EstimationStrategy` -- the formal
protocol the optimizer and the serving core speak.  Historically those
consumers probed estimators with ``getattr`` for optional capabilities
(``selectivity_detail``, ``estimate_count_batch``, ``shard_selectivity``,
``last_pass_stats``); the protocol makes every one
of those probes an explicit method or capability flag, so a new estimator
is a drop-in rather than an edit across layers.  Existing duck-typed
estimators are adapted with :func:`repro.estimators.strategy.as_strategy`,
the one remaining (and deliberate) home of capability discovery.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import EstimationError
from repro.sql.query import CardQuery


class CountEstimator(abc.ABC):
    """Estimates COUNT(*) cardinalities of (joined, filtered) queries."""

    #: short identifier used in benchmark tables ("sketch", "sample", ...)
    name: str = "count-estimator"

    @abc.abstractmethod
    def estimate_count(self, query: CardQuery) -> float:
        """Estimated number of result rows of ``query`` (>= 0)."""

    def estimation_overhead(self, query: CardQuery) -> float:
        """Cost-model units spent producing one estimate for ``query``.

        Default charges a negligible constant; subclasses override to model
        their real inference cost (e.g. real-time sampling).
        """
        return 0.01

    def selectivity(self, query: CardQuery) -> float:
        """Estimated fraction of the unfiltered result the query keeps.

        Only meaningful for single-table queries; used by the reader-choice
        optimizer.
        """
        raise NotImplementedError


class NdvEstimator(abc.ABC):
    """Estimates COUNT(DISTINCT column) for filtered single-table queries."""

    name: str = "ndv-estimator"

    @abc.abstractmethod
    def estimate_ndv(self, query: CardQuery) -> float:
        """Estimated number of distinct values of the aggregate target."""

    def estimation_overhead(self, query: CardQuery) -> float:
        return 0.01

    def group_ndv(self, query: CardQuery) -> float:
        """NDV of the combined group-by key (hash-table pre-sizing).

        Part of the base contract so consumers never probe for the method;
        estimators without a group-key model keep this default, which
        signals "unsupported" through the normal estimation-error channel.
        """
        raise EstimationError(f"{self.name} does not support group NDV")


@dataclass(frozen=True)
class EstimateDetail:
    """One estimate plus the provenance of how it was produced.

    ``source`` labels feed the optimizer's per-decision provenance
    accounting: ``direct`` (a bare estimator answered in-line), ``cache`` /
    ``model`` / ``fallback-*`` (the serving tier's paths), ``shard_model``
    (a shard-specialized model), ``fallback-<strategy>`` (a later link of a
    :class:`~repro.estimators.strategy.StrategyChain` answered), or
    ``detail_error`` (the provenance path itself raised; see
    :class:`~repro.errors.DetailError`).
    """

    value: float
    source: str


class EstimationStrategy(CountEstimator):
    """The formal protocol between estimator implementations and consumers.

    Every capability the optimizer and the serving core used to discover by
    ``getattr`` is an explicit member here:

    * ``selectivity`` / ``estimate_count`` -- the plain task interface
      (inherited from :class:`CountEstimator`);
    * ``selectivity_detail`` / ``estimate_count_detail`` -- the same
      answers with provenance, for plan-decision accounting;
    * ``estimate_count_batch`` + :attr:`supports_batching` /
      :attr:`supports_join_batching` -- the micro-batcher's hooks;
    * ``shard_selectivity`` + :attr:`supports_shard_routing` -- routing to
      shard-specialized models when pruning pins a partition;
    * :attr:`last_pass_stats` -- BN pass accounting for provenance;
    * ``cache_scope`` -- the strategy identity mixed into serving cache
      keys, so estimates produced under different strategies (an A/B run,
      a router that re-routed) never cross-pollinate.

    A strategy *is* a :class:`CountEstimator`, so it can be dropped
    anywhere an estimator is accepted (suites, services, benchmarks).
    """

    #: stable identifier; names the strategy in routing rules, cache keys,
    #: per-strategy Q-Error series, and A/B reports
    strategy_id: str = "strategy"

    #: the estimator benefits from ``estimate_count_batch`` micro-batching
    supports_batching: bool = False
    #: join queries may be micro-batched (shared-plan inference)
    supports_join_batching: bool = False
    #: ``shard_selectivity`` can answer for pinned partitions
    supports_shard_routing: bool = False

    #: the catalog the strategy estimates over (None when not table-backed)
    catalog = None

    # -- provenance-carrying interface ---------------------------------
    def selectivity_detail(self, query: CardQuery) -> EstimateDetail:
        """Selectivity plus provenance; default answers in-line."""
        return EstimateDetail(float(self.selectivity(query)), "direct")

    def estimate_count_detail(self, query: CardQuery) -> EstimateDetail:
        """COUNT estimate plus provenance; default answers in-line."""
        return EstimateDetail(float(self.estimate_count(query)), "direct")

    # -- batching -------------------------------------------------------
    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """Batched COUNT estimates; default degenerates to a loop."""
        return [float(self.estimate_count(query)) for query in queries]

    # -- shard routing --------------------------------------------------
    def shard_selectivity(
        self, table: str, shard: int, query: CardQuery
    ) -> float | None:
        """Selectivity from a shard-specialized model, or None."""
        return None

    @property
    def last_pass_stats(self):
        """Pass accounting of this thread's last join estimate, or None."""
        return None

    # -- serving-cache identity ----------------------------------------
    def cache_scope(self, query: CardQuery) -> str:
        """The strategy identity under which this query's estimate caches.

        A router overrides this per query (the scope is the routed chain),
        so derating that changes the route also changes the cache key.
        """
        return self.strategy_id

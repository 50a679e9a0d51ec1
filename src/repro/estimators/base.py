"""Estimator interfaces: the COUNT and COUNT-DISTINCT ABCs.

Two estimation tasks exist in the paper: ``COUNT`` (row counts of filtered
joins, driving materialization and join ordering) and ``COUNT-DISTINCT``
(NDV, driving hash-table pre-sizing).  Every estimator also reports an
*estimation overhead* in the engine's abstract cost units, because the
paper's end-to-end result (Figure 5) hinges on the fact that the
sample-based method's good Q-Error does not translate into good latency --
its per-query estimation cost is too high.

:class:`CountEstimator` is the one interface the optimizer and the
serving core speak, like the paper's Inference Engine contract that every
model implements.  Its optional capabilities -- provenance-carrying
``*_detail`` calls, BN pass accounting, the immutable
:meth:`~CountEstimator.snapshot` a served request computes from and the
:meth:`~CountEstimator.cache_key` naming it -- are methods with in-line
defaults, so no consumer probes for a method.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import EstimationError
from repro.sql.query import CardQuery


@dataclass(frozen=True)
class EstimateDetail:
    """One estimate plus the provenance of how it was produced.

    ``source`` labels feed the optimizer's per-decision provenance
    accounting: ``direct`` (a bare estimator answered in-line), ``cache`` /
    ``model`` / ``fallback-*`` (the serving tier's and the fleet's paths,
    where ``fallback-*`` means the traditional estimator answered).
    """

    value: float
    source: str


class CountEstimator(abc.ABC):
    """Estimates COUNT(*) cardinalities of (joined, filtered) queries."""

    #: short identifier used in benchmark tables ("sketch", "sample", ...);
    #: also the identity serving caches scope this estimator's answers by
    name: str = "count-estimator"

    #: the catalog the estimator estimates over (None when not table-backed)
    catalog = None

    @abc.abstractmethod
    def estimate_count(self, query: CardQuery) -> float:
        """Estimated number of result rows of ``query`` (>= 0)."""

    # -- the inference context a served request computes from -----------
    def snapshot(self) -> "CountEstimator":
        """The immutable estimator one served request reads once and
        computes from; by default the estimator itself."""
        return self

    def cache_key(self, task: str, query: CardQuery) -> tuple | None:
        """Tokens that change whenever this snapshot's answer to ``query``
        may; by default none, so a cached answer is never superseded.

        ``None`` means the answer may change without a token: nothing that
        keys by this method stores anything under it.
        """
        return ()

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

    # -- provenance-carrying interface ---------------------------------
    def selectivity_detail(self, query: CardQuery) -> EstimateDetail:
        """Selectivity plus provenance; default answers in-line."""
        return EstimateDetail(float(self.selectivity(query)), "direct")

    def estimate_count_detail(self, query: CardQuery) -> EstimateDetail:
        """COUNT estimate plus provenance; default answers in-line."""
        return EstimateDetail(float(self.estimate_count(query)), "direct")

    @property
    def last_pass_stats(self):
        """Pass accounting of this thread's last join estimate, or None."""
        return None


class NdvEstimator(abc.ABC):
    """Estimates COUNT(DISTINCT column) for filtered single-table queries."""

    name: str = "ndv-estimator"

    @abc.abstractmethod
    def estimate_ndv(self, query: CardQuery) -> float:
        """Estimated number of distinct values of the aggregate target."""

    @abc.abstractmethod
    def estimation_overhead(self, query: CardQuery) -> float:
        """Cost-model units spent producing one NDV estimate for ``query``."""

    def cache_key(self, task: str, query: CardQuery) -> tuple | None:
        """See :meth:`CountEstimator.cache_key`."""
        return ()

    def group_ndv(self, query: CardQuery) -> float:
        """NDV of the combined group-by key (hash-table pre-sizing).

        Part of the base contract so consumers never probe for the method;
        estimators without a group-key model keep this default, which
        signals "unsupported" through the normal estimation-error channel.
        """
        raise EstimationError(f"{self.name} does not support group NDV")

    def group_ndv_detail(self, query: CardQuery) -> EstimateDetail:
        """Group NDV plus provenance; default answers in-line."""
        return EstimateDetail(float(self.group_ndv(query)), "direct")

"""The A/B harness: structured plan-decision and Q-Error diffs."""

import json

import pytest

from repro.abtest import ABHarness, ABReport, QueryDiff
from repro.estimators import StrategyChain, StrategyRouter, UpperBoundEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.sql.query import CardQuery, PredicateOp, TablePredicate


def traditional(catalog):
    """The Selinger estimator named as the "traditional" strategy."""
    return StrategyChain({"traditional": SelingerEstimator(catalog)})


@pytest.fixture(scope="module")
def harness(imdb):
    return ABHarness(
        imdb.catalog,
        traditional(imdb.catalog),
        UpperBoundEstimator(imdb.catalog),
    )


def test_identical_strategies_diff_nothing(imdb, imdb_workload):
    harness = ABHarness(
        imdb.catalog,
        traditional(imdb.catalog),
        traditional(imdb.catalog),
        compute_truth=False,
    )
    report = harness.run(imdb_workload.queries[:8])
    assert report.queries == 8
    assert report.plans_differing == 0
    for diff in report.diffs:
        assert not diff.plan_differs
        assert diff.estimate_a == diff.estimate_b


def test_report_covers_workload_with_qerrors(harness, imdb_workload):
    report = harness.run(imdb_workload)
    assert report.strategy_a == "traditional"
    assert report.strategy_b == "upper_bound"
    assert report.queries == len(imdb_workload.queries)
    summary = report.summary()
    assert summary["qerror_a"]["count"] > 0
    assert summary["qerror_b"]["count"] > 0
    # Generated workloads carry true counts; every diff is anchored.
    for diff in report.diffs:
        assert diff.true_count is not None
        if diff.estimate_b is not None:
            # The upper bound side never underestimates.
            assert diff.estimate_b >= diff.true_count


def test_report_json_round_trip(harness, imdb_workload):
    report = harness.run(imdb_workload.queries[:5])
    payload = json.loads(report.to_json())
    assert payload["summary"]["queries"] == 5
    assert len(payload["queries"]) == 5
    first = payload["queries"][0]
    assert {"query", "scope_a", "scope_b", "plan_differs"} <= set(first)


def test_compare_records_routed_scopes(imdb):
    router = StrategyRouter(
        {
            "traditional": SelingerEstimator(imdb.catalog),
            "upper_bound": UpperBoundEstimator(imdb.catalog),
        },
        default_chain=("traditional", "upper_bound"),
    )
    harness = ABHarness(
        imdb.catalog,
        router,
        UpperBoundEstimator(imdb.catalog),
        compute_truth=False,
    )
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.LE, 1995.0),
        ),
        name="scoped",
    )
    diff = harness.compare(query)
    # The router reports its routed chain, not just "router".
    assert diff.scope_a == "traditional>upper_bound"
    assert diff.scope_b == "upper_bound"


def test_known_truth_short_circuits_counting(imdb):
    harness = ABHarness(
        imdb.catalog,
        traditional(imdb.catalog),
        UpperBoundEstimator(imdb.catalog),
    )
    query = CardQuery(tables=("title",), name="q")
    diff = harness.compare(query, truth=123.0)
    assert diff.true_count == 123.0

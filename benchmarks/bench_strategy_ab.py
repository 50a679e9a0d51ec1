"""Strategy A/B comparison: plan-decision and Q-Error diff report.

Runs :class:`repro.abtest.ABHarness` over a generated IMDB workload for
two strategy pairings -- the learned stack vs. the UES-style upper bound
(risk-averse routing candidate), and, in the full configuration, the
learned stack vs. the traditional Selinger baseline -- and writes the
structured plan-diff report to ``benchmarks/results/strategy_ab.json``
(the artifact the ``strategy-ab-smoke`` CI job uploads).

Checked invariants:

* every workload query yields a comparison with both sides' routed cache
  scopes recorded;
* the upper-bound side never underestimates the true cardinality (its
  sole contract -- see ``repro/estimators/ues.py``);
* the report round-trips through JSON.

Set ``AB_BENCH_SMOKE=1`` for the reduced CI configuration (smaller
dataset and workload, the learned-vs-upper-bound pairing only).
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import RESULTS_DIR, record_table, render_grid

from repro.abtest import ABHarness
from repro.datasets import make_imdb
from repro.estimators import StrategyChain, UpperBoundEstimator
from repro.estimators.factorjoin import FactorJoinEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.workloads import job_hybrid

SMOKE = os.environ.get("AB_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.15 if SMOKE else 0.5
NUM_QUERIES = 20 if SMOKE else 100


@pytest.fixture(scope="module")
def bundle():
    return make_imdb(scale=SCALE, seed=19)


@pytest.fixture(scope="module")
def workload(bundle):
    return job_hybrid(bundle, num_queries=NUM_QUERIES, seed=41)


@pytest.fixture(scope="module")
def learned(bundle):
    # A one-link chain names the estimator: the side label and plan scope.
    return StrategyChain(
        {"learned": FactorJoinEstimator.train(bundle.catalog, bundle.filter_columns)}
    )


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def test_strategy_ab(bundle, workload, learned):
    # UpperBoundEstimator's own name is already "upper_bound".
    pairings = [(learned, UpperBoundEstimator(bundle.catalog))]
    if not SMOKE:
        pairings.append(
            (learned, StrategyChain({"traditional": SelingerEstimator(bundle.catalog)}))
        )

    reports = []
    rows = []
    for strategy_a, strategy_b in pairings:
        harness = ABHarness(bundle.catalog, strategy_a, strategy_b)
        report = harness.run(workload)
        summary = report.summary()
        reports.append(report)

        assert report.queries == len(workload.queries)
        for diff in report.diffs:
            assert diff.scope_a and diff.scope_b
            # The upper bound's contract: never below the true count.
            if (
                strategy_b.name == "upper_bound"
                and diff.estimate_b is not None
                and diff.true_count is not None
            ):
                assert diff.estimate_b >= diff.true_count

        rows.append(
            [
                f"{report.strategy_a} vs {report.strategy_b}",
                str(summary["queries"]),
                str(summary["plans_differing"]),
                str(summary["join_orders_differing"]),
                str(summary["reader_choices_differing"]),
                _fmt(summary["qerror_a"]["p90"]),
                _fmt(summary["qerror_b"]["p90"]),
            ]
        )

    payload = {
        "smoke": SMOKE,
        "scale": SCALE,
        "num_queries": NUM_QUERIES,
        "comparisons": [r.to_dict() for r in reports],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "strategy_ab.json"
    out.write_text(json.dumps(payload, indent=2))
    # The report must survive a JSON round trip (CI consumes the artifact).
    assert json.loads(out.read_text())["comparisons"][0]["summary"]["queries"] == (
        NUM_QUERIES
    )

    record_table(
        "strategy_ab",
        render_grid(
            "Strategy A/B: plan decisions and Q-Error (p90)",
            ["pairing", "queries", "plans≠", "joins≠", "readers≠", "qA p90", "qB p90"],
            rows,
        ),
    )

"""Tests for the drift-detection and self-healing loop.

Scenario from the paper's loading/monitoring design: the data distribution
shifts after a model was trained; the Model Monitor's test queries expose
the stale model, ByteCard falls back to the traditional estimator for the
affected table, ModelForge retrains on the current data, the loader picks
up the newer timestamp, and serving returns to the learned path.
"""

import numpy as np
import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.metrics import qerror
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.storage import Table
from repro.workloads import true_count


def _shift_distribution(bundle, table_name: str, column: str, rng) -> None:
    """Replace a column's data with a very different distribution."""
    table = bundle.catalog.table(table_name)
    arrays = {
        name: table.column(name).values.copy() for name in table.column_names()
    }
    values = arrays[column]
    # Shift the whole distribution out of the trained domain -- the "new
    # data regime" drift (fresh date partitions, new id ranges) that makes
    # a stale model's estimates collapse.
    arrays[column] = (values + values.max() + 1).astype(values.dtype)
    bundle.catalog.replace(
        Table.from_arrays(table_name, arrays, block_size=table.block_size)
    )


@pytest.fixture()
def fresh_aeolus():
    # A private bundle: these tests mutate table contents, so the shared
    # session-scoped fixture must not be used.
    from repro.datasets import make_aeolus

    return make_aeolus(scale=0.15, seed=71)


@pytest.fixture()
def built(fresh_aeolus):
    config = ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=300,
        rbx_epochs=5,
        monitor_queries_per_table=10,
        join_bucket_count=40,
        max_bins=32,
        qerror_gate=8.0,
    )
    return ByteCard.build(fresh_aeolus, config=config, run_monitor=False)


class TestDriftDetection:
    def test_monitor_detects_shift(self, built, fresh_aeolus, rng):
        before = built.run_monitor(fine_tune=False)
        _shift_distribution(fresh_aeolus, "impressions", "cost_millis", rng)
        _shift_distribution(fresh_aeolus, "impressions", "user_segment", rng)
        try:
            after = built.run_monitor(fine_tune=False)
            degraded = {r.name: r for r in after}["impressions"]
            baseline = {r.name: r for r in before}["impressions"]
            assert degraded.p90 > baseline.p90
        finally:
            built.monitor_and_heal()  # restore serving state for other tests

    def test_heal_restores_learned_serving(self, built, fresh_aeolus, rng):
        _shift_distribution(fresh_aeolus, "conversions", "value_millis", rng)
        _shift_distribution(fresh_aeolus, "conversions", "conv_type", rng)
        reports = built.run_monitor(fine_tune=False)
        conversions_report = {r.name: r for r in reports}["conversions"]
        if conversions_report.passed:
            pytest.skip("shift did not trip the gate at this seed")
        assert "conversions" in built.fallback_tables

        healed = built.monitor_and_heal()
        conversions_after = {r.name: r for r in healed}["conversions"]
        assert conversions_after.passed
        assert "conversions" not in built.fallback_tables

        # Retrained model estimates the *new* distribution well.
        table = fresh_aeolus.catalog.table("conversions")
        anchor = float(table.column("conv_type").values[0])
        query = CardQuery(
            tables=("conversions",),
            predicates=(
                TablePredicate("conversions", "conv_type", PredicateOp.EQ, anchor),
            ),
        )
        truth = true_count(fresh_aeolus.catalog, query)
        assert qerror(built.estimate_count(query), truth) < 3.0

    def test_fallback_serves_during_outage(self, built):
        """While a table is gated, estimates equal the traditional path and
        never raise."""
        built.set_fallback("clicks", True)
        try:
            query = CardQuery(
                tables=("clicks",),
                predicates=(
                    TablePredicate("clicks", "device_type", PredicateOp.EQ, 1.0),
                ),
            )
            expected = built._traditional_count.estimate_count(query)
            assert built.estimate_count(query) == expected
        finally:
            built.set_fallback("clicks", False)

"""End-to-end observability: one ByteCard, every subsystem, one export.

Builds a small ByteCard, serves requests through the concurrent tier, and
runs GROUP BY queries through an :class:`EngineSession` wired to the same
registry -- then asserts the single export carries the loader, monitor,
serving, optimizer, and executor series the dashboards need.
"""

import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.engine import EngineSession
from repro.engine.explain import explain_plan, explain_result
from repro.obs import export_json, export_text, missing_series
from repro.serving import ServingConfig
from repro.sql.query import AggKind, AggSpec, CardQuery, JoinCondition

#: series every deployment dashboard depends on (the CI smoke contract)
REQUIRED_SERIES = [
    # serving tier
    "serving_requests_total",
    "serving_request_seconds",
    "span_seconds",
    # model loader lifecycle
    "loader_refresh_total",
    "loader_models_loaded_total",
    "loader_generation",
    "loader_loaded_models",
    "loader_loaded_bytes",
    # model monitor drift
    "monitor_assessments_total",
    "monitor_qerror_p90",
    # execution engine
    "engine_queries_total",
    "engine_blocks_read_total",
    "engine_stage_seconds",
    "engine_hash_resizes_total",
    "engine_presize_waste_slots_total",
    "optimizer_decision_seconds",
    "plan_memo_hits_total",
    "plan_memo_misses_total",
]


@pytest.fixture(scope="module")
def bytecard(aeolus):
    config = ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=300,
        rbx_epochs=5,
        monitor_queries_per_table=6,
        join_bucket_count=40,
        max_bins=32,
    )
    return ByteCard.build(aeolus, config=config, run_monitor=True)


def group_query() -> CardQuery:
    return CardQuery(
        tables=("ads", "impressions"),
        joins=(JoinCondition("ads", "ad_id", "impressions", "ad_id"),),
        group_by=(("impressions", "user_segment"),),
        agg=AggSpec(AggKind.COUNT, None, None),
        name="obs-groupby",
    )


@pytest.fixture(scope="module")
def exercised(bytecard, aeolus):
    """Drive every instrumented subsystem once, return (plan, result)."""
    with bytecard.serve(ServingConfig(deadline_ms=None, num_workers=2)) as service:
        probe = CardQuery(tables=("ads",))
        service.estimate_count(probe)
        service.estimate_count(probe)  # cache hit
        # Group-by COUNTs bypass the micro-batcher: the unbatched model path.
        service.estimate_count(group_query())
        session = EngineSession(aeolus.catalog, service=service)
        plan = session.optimizer.plan(group_query())
        result = session.executor.execute(plan)
        session.run(group_query())  # second pass: planning hits the cache
    return plan, result


class TestUnifiedExport:
    def test_every_required_series_present(self, bytecard, exercised):
        registry = bytecard.metrics()
        assert registry is bytecard.obs
        assert missing_series(registry, REQUIRED_SERIES) == []

    def test_text_and_json_exports_agree(self, bytecard, exercised):
        text = bytecard.metrics_text()
        doc = bytecard.metrics_json()
        assert "loader_refresh_total" in text
        assert doc["gauges"]["loader_generation"] >= 1
        assert any(
            name.startswith("monitor_qerror_p90") for name in doc["series"]
        )
        assert export_text(bytecard.obs) == text
        assert export_json(bytecard.obs) == doc

    def test_serving_paths_split_in_export(self, bytecard, exercised):
        registry = bytecard.metrics()
        model_path = registry.get("serving_request_seconds", path="model")
        cache_path = registry.get("serving_request_seconds", path="cache")
        assert model_path is not None and model_path.count >= 1
        assert cache_path is not None and cache_path.count >= 1

    def test_monitor_drift_series_populated(self, bytecard):
        assert bytecard.monitor.drift  # one entry per assessed model/column
        registry = bytecard.metrics()
        kinds = {"count", "ndv"}
        totals = [
            registry.get("monitor_assessments_total", kind=kind)
            for kind in kinds
        ]
        assert any(c is not None and c.value >= 1 for c in totals)

    def test_engine_counters_reflect_execution(self, bytecard, exercised):
        registry = bytecard.metrics()
        assert registry.get("engine_queries_total").value >= 2
        assert registry.get("engine_blocks_read_total").value > 0
        for stage in ("scan", "join", "aggregate"):
            hist = registry.get("engine_stage_seconds", stage=stage)
            assert hist is not None and hist.count >= 2
        assert registry.get("engine_hash_resizes_total") is not None
        assert registry.get("engine_presize_waste_slots_total") is not None


class TestEnrichedExplain:
    def test_plan_shows_decision_timings_and_provenance(self, exercised):
        plan, _result = exercised
        text = explain_plan(plan)
        assert "decisions:" in text
        assert "selectivity:ads" in text
        assert "group_ndv" in text
        # Provenance labels from the serving tier (cache/model/fallback).
        assert "cache x" in text or "model x" in text

    def test_result_shows_stage_timings(self, exercised):
        _plan, result = exercised
        text = explain_result(result)
        assert "stage timings:" in text
        assert "scan=" in text and "join=" in text and "aggregate=" in text

    def test_second_plan_reports_cached_estimates(self, bytecard, aeolus):
        """A second session re-plans (its optimizer's memo is its own) and
        reads every estimate the first session's plan left in the cache;
        the first session's repeat is a memo hit."""
        with bytecard.serve(
            ServingConfig(deadline_ms=None, num_workers=2)
        ) as service:
            session = EngineSession(aeolus.catalog, service=service)
            session.optimizer.plan(group_query())
            repeat = session.optimizer.plan(group_query())
            replanned = EngineSession(
                aeolus.catalog, service=service
            ).optimizer.plan(group_query())
        assert list(repeat.decision_timings) == ["plan_memo"]
        merged: dict[str, int] = {}
        for counts in replanned.decision_provenance.values():
            for source, count in counts.items():
                merged[source] = merged.get(source, 0) + count
        assert merged.get("cache", 0) >= 1


class TestDisabledObservability:
    def test_disabled_config_exports_nothing(self, aeolus):
        card = ByteCard(aeolus, config=ByteCardConfig(enable_observability=False))
        assert not card.metrics().enabled
        assert card.metrics_text() == ""
        session = EngineSession(
            aeolus.catalog, service=None, suite=card.as_suite()
        )
        session.run(CardQuery(tables=("ads",)))
        assert len(card.metrics()) == 0

"""Tests for the soak driver: merge order, windows, and the closed loop.

The full-scale acceptance run (detections, retrain landings, recovery
bounds) lives in ``benchmarks/bench_stream_soak.py``; here the driver is
exercised at test scale to pin its structural contracts.
"""

import json

import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.engine import EngineConfig, EngineSession, EstimatorSuite
from repro.errors import SchemaError
from repro.estimators.traditional import SelingerEstimator
from repro.sql.query import CardQuery
from repro.stream import (
    ArrivalConfig,
    ArrivalProcess,
    DriftRecipe,
    IngestEvent,
    IngestProcess,
    QueryEvent,
    SimClock,
    StreamConfig,
    StreamDriver,
    apply_ingest,
    merge_events,
)

from .conftest import fresh_bundle


def _query_event(at_s, seq):
    return QueryEvent(
        at_s=at_s,
        seq=seq,
        query=CardQuery(tables=("t",), name=f"q{seq}"),
        template=f"q{seq}",
        repeated=True,
    )


def _ingest_event(at_s, seq):
    return IngestEvent(
        at_s=at_s, seq=seq, table="t", action="delete", recipe="r"
    )


class TestMergeEvents:
    def test_orders_by_time(self):
        merged = merge_events(
            [_query_event(5.0, 0), _query_event(1.0, 1)],
            [_ingest_event(3.0, 0)],
        )
        assert [e.at_s for e in merged] == [1.0, 3.0, 5.0]

    def test_ingest_wins_ties(self):
        """A mutation stamped at t is visible to queries stamped at t."""
        merged = merge_events(
            [_query_event(3.0, 0)], [_ingest_event(3.0, 0)]
        )
        assert isinstance(merged[0], IngestEvent)
        assert isinstance(merged[1], QueryEvent)


class TestStreamConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"window_s": 0.0},
            {"stall_fallback_budget": -0.1},
            {"recovery_windows": -1},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(SchemaError):
            StreamConfig(**overrides)


class TestReplayDeterminism:
    def test_mutated_catalog_executes_identically(self):
        """Two replays of the arrival queries over the fully mutated catalog
        return identical results."""
        from repro.workloads import aeolus_online

        results = []
        for _ in range(2):
            bundle = fresh_bundle()
            workload = aeolus_online(bundle, num_queries=10, seed=5)
            ingest = IngestProcess(
                bundle.catalog,
                (
                    DriftRecipe(
                        "impressions", "cost_millis", "shift",
                        at_s=0.0, fraction=0.3, batches=2, spread_s=5.0,
                    ),
                    DriftRecipe(
                        "clicks", "dwell_bucket", "delete",
                        at_s=10.0, fraction=0.2,
                    ),
                ),
                seed=29,
            )
            arrivals = ArrivalProcess(
                bundle.catalog,
                workload,
                ArrivalConfig(horizon_s=60.0, base_qps=1.0, seed=17),
                probes=ingest.probes(),
            )
            for event in ingest.events():
                apply_ingest(bundle.catalog, event)
            session = EngineSession(
                bundle.catalog,
                suite=EstimatorSuite(
                    "sketch", SelingerEstimator(bundle.catalog)
                ),
            )
            results.append(
                [
                    (e.key(), session.run(e.query).result_rows)
                    for e in arrivals.events()
                ]
            )
        assert results[0] == results[1]


@pytest.fixture(scope="module")
def soak():
    """One tiny end-to-end soak: drift mid-stream, forge attached."""
    import tempfile

    bundle = fresh_bundle()
    bytecard = ByteCard.build(
        bundle,
        config=ByteCardConfig(
            training_sample_rows=1500,
            rbx_corpus_size=100,
            rbx_epochs=2,
            monitor_queries_per_table=5,
            join_bucket_count=20,
            max_bins=16,
            qerror_gate=8.0,
        ),
        run_monitor=False,
    )
    from repro.workloads import aeolus_online

    workload = aeolus_online(bundle, num_queries=10, seed=5)
    ingest = IngestProcess(
        bundle.catalog,
        (
            DriftRecipe(
                "impressions", "cost_millis", "shift",
                at_s=25.0, fraction=0.5,
            ),
        ),
        seed=29,
    )
    arrivals = ArrivalProcess(
        bundle.catalog,
        workload,
        ArrivalConfig(horizon_s=60.0, base_qps=1.5, seed=17),
        probes=ingest.probes(),
    )
    clock = SimClock()
    with tempfile.TemporaryDirectory() as tmp:
        with bytecard.forge(tmp, clock=clock) as manager:
            driver = StreamDriver(
                bytecard,
                arrivals,
                ingest,
                clock=clock,
                manager=manager,
                config=StreamConfig(
                    window_s=20.0, recovery_windows=1, drain_timeout_s=60.0
                ),
            )
            timeline = driver.run()
    return driver, timeline


class TestDriverRun:
    def test_window_layout(self, soak):
        _, timeline = soak
        phases = [w.phase for w in timeline.windows]
        assert phases == ["traffic", "traffic", "traffic", "recovery"]
        bounds = [(w.t_start_s, w.t_end_s) for w in timeline.windows]
        assert bounds == [(0, 20), (20, 40), (40, 60), (60, 80)]
        assert [w.index for w in timeline.windows] == [0, 1, 2, 3]

    def test_every_event_is_accounted_for(self, soak):
        driver, timeline = soak
        queries = sum(1 for e in driver.arrivals.events())
        assert sum(w.queries for w in timeline.windows if w.phase == "traffic") == queries
        assert sum(w.ingest_events for w in timeline.windows) == len(
            driver.ingest.events()
        )
        assert sum(w.rows_appended for w in timeline.windows) > 0

    def test_drift_surfaces_in_the_timeline(self, soak):
        _, timeline = soak
        assert timeline.first_drift_at_s == 25.0
        # The stale model faces probe traffic over the shifted region; the
        # window re-assessment must catch it from runtime evidence alone.
        assert "impressions" in timeline.detected_tables()
        assert timeline.drained

    def test_clock_ends_at_final_boundary(self, soak):
        driver, _ = soak
        assert driver.clock.now() >= 80.0

    def test_timeline_serializes_to_json(self, soak):
        _, timeline = soak
        doc = json.loads(json.dumps(timeline.as_dict()))
        assert len(doc["windows"]) == 4
        assert "qerrors" not in doc["windows"][0]
        assert doc["windows"][0]["qerror_p90"] >= 1.0

    def test_feedback_loop_required(self, soak):
        driver, _ = soak
        with pytest.raises(SchemaError):
            StreamDriver(
                driver.bytecard,
                driver.arrivals,
                engine_config=EngineConfig(enable_feedback=False),
            )

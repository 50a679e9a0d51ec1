"""Cross-module integration tests: the paper's claims, end to end."""

import numpy as np
import pytest

from repro.engine import EngineSession, EstimatorSuite
from repro.estimators.traditional import (
    SamplingCountEstimator,
    SamplingNdvEstimator,
    SelingerEstimator,
    SketchNdvEstimator,
)
from repro.metrics import LatencyProfile, qerror
from repro.workloads import true_count, true_ndv


class TestLearnedVsTraditionalAccuracy:
    """Tables 1 vs 2: learned estimators beat traditional ones."""

    def test_count_qerror_improves(self, imdb, imdb_workload, imdb_factorjoin):
        sketch = SelingerEstimator(imdb.catalog)
        truths = [imdb_workload.true_counts[q.name] for q in imdb_workload.queries]
        learned = [
            qerror(imdb_factorjoin.estimate_count(q), t)
            for q, t in zip(imdb_workload.queries, truths)
        ]
        traditional = [
            qerror(sketch.estimate_count(q), t)
            for q, t in zip(imdb_workload.queries, truths)
        ]
        assert np.quantile(learned, 0.9) <= np.quantile(traditional, 0.9)

    def test_ndv_qerror_improves_at_tail(self, aeolus, rbx_network):
        """On AEOLUS (whose filtered high-NDV columns are the hard cases)
        RBX's tail error beats the predicate-blind sketch."""
        from repro.estimators.rbx import RBXNdvEstimator
        from repro.workloads import aeolus_online

        workload = aeolus_online(aeolus, num_queries=20, seed=88)
        rbx = RBXNdvEstimator(aeolus.catalog, rbx_network, sample_rows=6000)
        sketch = SketchNdvEstimator(aeolus.catalog)
        learned, traditional = [], []
        for q in workload.ndv_queries:
            truth = true_ndv(aeolus.catalog, q)
            if truth == 0:
                continue
            learned.append(qerror(rbx.estimate_ndv(q), truth))
            traditional.append(qerror(sketch.estimate_ndv(q), truth))
        assert np.quantile(learned, 0.9) <= np.quantile(traditional, 0.9) * 1.1


class TestEndToEndEngine:
    """Figure 5's setup: three suites on one workload, same answers,
    different latency."""

    @pytest.fixture(scope="class")
    def suites(self, imdb, imdb_factorjoin, imdb_rbx):
        return {
            "sketch": EstimatorSuite(
                "sketch",
                SelingerEstimator(imdb.catalog),
                SketchNdvEstimator(imdb.catalog),
            ),
            "sample": EstimatorSuite(
                "sample",
                SamplingCountEstimator(imdb.catalog, rate=0.05),
                SamplingNdvEstimator(imdb.catalog, rate=0.05),
            ),
            "bytecard": EstimatorSuite("bytecard", imdb_factorjoin, imdb_rbx),
        }

    def test_all_suites_compute_identical_answers(
        self, imdb, imdb_workload, suites
    ):
        queries = imdb_workload.queries[:8]
        rows = {}
        for name, suite in suites.items():
            session = EngineSession(imdb.catalog, suite)
            rows[name] = [session.run(q).result_rows for q in queries]
        assert rows["sketch"] == rows["sample"] == rows["bytecard"]
        assert rows["sketch"] == [true_count(imdb.catalog, q) for q in queries]

    def test_latency_profiles_normalize(self, imdb, imdb_workload, suites):
        profiles = {}
        for name, suite in suites.items():
            session = EngineSession(imdb.catalog, suite)
            profiles[name] = session.run_workload(imdb_workload.queries[:10])
        normalized = LatencyProfile.normalize(profiles)
        for bars in normalized.values():
            assert all(0.0 < v <= 1.0 for v in bars.values())

    def test_sample_pays_estimation_overhead(self, imdb, imdb_workload, suites):
        """The paradox of Section 6.3: sample-based Q-Error may be fine but
        its estimation overhead dominates cheap queries."""
        sample_session = EngineSession(imdb.catalog, suites["sample"])
        bytecard_session = EngineSession(imdb.catalog, suites["bytecard"])
        query = imdb_workload.queries[0]
        sample_cost = sample_session.run(query).estimation_cost
        bytecard_cost = bytecard_session.run(query).estimation_cost
        assert sample_cost > bytecard_cost


class TestByteCardLifecycle:
    """The full production loop on AEOLUS, including calibration."""

    def test_build_monitor_and_serve(self, aeolus):
        from repro.core import ByteCard, ByteCardConfig

        config = ByteCardConfig(
            training_sample_rows=4000,
            rbx_corpus_size=500,
            rbx_epochs=8,
            monitor_queries_per_table=6,
            join_bucket_count=50,
            max_bins=32,
        )
        bytecard = ByteCard.build(aeolus, config=config, run_monitor=True)
        status = bytecard.status()
        assert status.loaded_models
        # Serving works for both estimate kinds after monitoring.
        from repro.workloads import aeolus_online

        workload = aeolus_online(aeolus, num_queries=5, seed=99)
        for q in workload.queries:
            assert bytecard.estimate_count(q) >= 0.0
        for q in workload.ndv_queries[:5]:
            assert bytecard.estimate_ndv(q) >= 1.0

    def test_retraining_after_ingestion_changes_models(self, imdb):
        from repro.core import ByteCard, ByteCardConfig
        from repro.core.modelforge import IngestionSignal

        config = ByteCardConfig(
            training_sample_rows=3000,
            rbx_corpus_size=400,
            rbx_epochs=6,
            join_bucket_count=40,
            max_bins=32,
        )
        bytecard = ByteCard.build(imdb, config=config, run_monitor=False)
        before = bytecard.registry.latest("bn", "title")
        bytecard.forge_service.ingest_signal(IngestionSignal(table="title"))
        bytecard.forge_service.train_count_models(imdb, tables=["title"])
        after = bytecard.registry.latest("bn", "title")
        assert after is not None and before is not None
        assert after.timestamp > before.timestamp
        bytecard.refresh()  # loader must pick up the new version
        loaded = bytecard.loader.get("bn", "title")
        assert loaded is not None

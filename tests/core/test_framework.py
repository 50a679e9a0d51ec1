"""Tests for the preprocessor, ModelForge, monitor, inference engines, and
the ByteCard facade -- the framework lifecycle end to end."""

import numpy as np
import pytest

from repro.core import (
    ByteCard,
    ByteCardConfig,
    ModelForgeService,
    ModelMonitor,
    ModelPreprocessor,
    ModelRegistry,
)
from repro.core.engine import BNInferenceEngine
from repro.core.modelforge import IngestionSignal, _universal_rbx_blob
from repro.core.serialization import deserialize_rbx, serialize_rbx
from repro.core.validator import ModelValidator
from repro.errors import ModelError
from repro.estimators.frequency import frequency_profile
from repro.estimators.rbx import train_rbx
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.storage.types import MLType


@pytest.fixture(scope="module")
def config():
    return ByteCardConfig(
        training_sample_rows=5000,
        rbx_corpus_size=600,
        rbx_epochs=10,
        monitor_queries_per_table=8,
        join_bucket_count=60,
        max_bins=32,
    )


@pytest.fixture(scope="module")
def built(aeolus, config):
    return ByteCard.build(aeolus, config=config)


class TestPreprocessor:
    def test_info_excludes_nothing_for_scalar_schemas(self, imdb):
        pre = ModelPreprocessor(imdb.catalog, join_bucket_count=30)
        rows = pre.preprocessor_info(imdb.filter_columns)
        tables = {row.table for row in rows}
        assert tables == set(imdb.catalog.table_names())

    def test_join_keys_flagged(self, imdb):
        pre = ModelPreprocessor(imdb.catalog, join_bucket_count=30)
        rows = pre.preprocessor_info(imdb.filter_columns)
        keys = {(r.table, r.column) for r in rows if r.is_join_key}
        assert ("title", "id") in keys
        assert ("cast_info", "movie_id") in keys

    def test_ml_types_assigned(self, imdb):
        pre = ModelPreprocessor(imdb.catalog, join_bucket_count=30)
        rows = pre.preprocessor_info(imdb.filter_columns)
        by_col = {(r.table, r.column): r.ml_type for r in rows}
        assert by_col[("title", "kind_id")] is MLType.CATEGORICAL

    def test_join_patterns_collected(self, stats):
        pre = ModelPreprocessor(stats.catalog)
        patterns = pre.collect_join_patterns()
        assert len(patterns) == len(stats.catalog.join_schema)

    def test_training_columns_include_keys_and_filters(self, imdb):
        pre = ModelPreprocessor(imdb.catalog, join_bucket_count=30)
        columns = pre.training_columns(imdb.filter_columns)
        assert "movie_id" in columns["cast_info"]
        assert "role_id" in columns["cast_info"]


class TestModelForge:
    def test_training_publishes_models(self, imdb, config):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, config)
        infos = forge.train_count_models(imdb)
        assert len(infos) == 6
        for info in infos:
            assert registry.latest("bn", info.name) is not None
            assert info.nbytes > 0
            assert info.seconds >= 0

    def test_ingestion_signals_drive_cycle(self, imdb, config):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, config)
        forge.ingest_signal(IngestionSignal(table="title", source="hive"))
        assert forge.dirty_tables() == {"title"}
        infos = forge.run_training_cycle(imdb)
        assert [i.name for i in infos] == ["title"]
        assert forge.dirty_tables() == set()
        assert forge.run_training_cycle(imdb) == []

    def test_rbx_universal_published(self, config):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, config)
        info = forge.train_rbx_universal()
        assert registry.latest("rbx", "universal") is not None
        assert info.nbytes > 100_000  # a few hundred KB of weights


class TestUniversalRBXMemo:
    """The universal checkpoint trains once per (corpus size, epochs, seed)."""

    CORPUS, EPOCHS = 100, 2

    def _publish(self, corpus=CORPUS, epochs=EPOCHS, seed=9):
        config = ByteCardConfig(rbx_corpus_size=corpus, rbx_epochs=epochs)
        forge = ModelForgeService(ModelRegistry(), config)
        forge.train_rbx_universal(seed=seed)
        return forge, forge.registry.latest("rbx", "universal").blob

    def test_repeat_publishes_the_trained_bytes_without_retraining(self):
        _, first = self._publish()
        hits = _universal_rbx_blob.cache_info().hits
        forge, second = self._publish()
        assert _universal_rbx_blob.cache_info().hits == hits + 1
        assert second == first
        assert forge.history[-1].nbytes == len(second)
        trained = train_rbx(num_examples=self.CORPUS, epochs=self.EPOCHS, seed=9)
        assert first == serialize_rbx(trained, meta={"scope": "universal"})

    @pytest.mark.parametrize(
        "change", [{"corpus": 101}, {"epochs": 3}, {"seed": 8}]
    )
    def test_every_training_input_is_in_the_key(self, change):
        assert self._publish(**change)[1] != self._publish()[1]

    def test_fine_tune_between_hits_leaves_the_checkpoint(self):
        forge, first = self._publish()
        model, _meta = deserialize_rbx(first)
        rng = np.random.default_rng(4)
        samples = [
            (frequency_profile(rng.integers(0, ndv, 500), 50_000), ndv)
            for ndv in (300, 20_000)
        ]
        forge.fine_tune_column(model, "t", "c", samples)
        _, second = self._publish()
        assert second == first


class TestPreprocessorCache:
    """The join bucketizer is rebuilt only when its inputs can have moved."""

    def test_training_cycles_reuse_bucketizer(self, imdb, config):
        forge = ModelForgeService(ModelRegistry(), config)
        first = forge._prepare(imdb)
        forge.train_count_models(imdb, tables=["title"])
        assert forge._prepare(imdb) is first  # same cached tuple

    def test_join_table_signal_invalidates(self, imdb, config):
        forge = ModelForgeService(ModelRegistry(), config)
        first = forge._prepare(imdb)
        # every IMDB table joins on title.id/movie_id, so any table is a
        # join-key table here
        forge.ingest_signal(IngestionSignal(table="title", source="hive"))
        assert forge._prepared is None
        assert forge._prepare(imdb) is not first

    def test_non_join_table_signal_keeps_cache(self, imdb, config):
        forge = ModelForgeService(ModelRegistry(), config)
        first = forge._prepare(imdb)
        # a table outside the collected join patterns cannot move bucket
        # edges: the cache must survive its dirt
        forge.ingest_signal(IngestionSignal(table="not_joined", source="hive"))
        assert forge.dirty_tables() == {"not_joined"}
        assert forge._prepare(imdb) is first

    def test_explicit_invalidation(self, imdb, config):
        forge = ModelForgeService(ModelRegistry(), config)
        first = forge._prepare(imdb)
        forge.invalidate_preprocessor_cache()
        assert forge._prepare(imdb) is not first

    def test_different_bundle_rebuilds(self, imdb, aeolus, config):
        forge = ModelForgeService(ModelRegistry(), config)
        imdb_prepared = forge._prepare(imdb)
        aeolus_prepared = forge._prepare(aeolus)
        assert aeolus_prepared is not imdb_prepared


class TestInferenceEngineAPI:
    def test_estimate_requires_context(self, imdb, config):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, config)
        forge.train_count_models(imdb, tables=["title"])
        record = registry.latest("bn", "title")
        assert record is not None
        engine = BNInferenceEngine(imdb.catalog, ModelValidator(1 << 30))
        assert engine.load_model(record.blob)
        assert engine.validate().ok
        query = engine.featurize_sql_query(
            "SELECT COUNT(*) FROM title WHERE kind_id = 1"
        )
        with pytest.raises(ModelError):
            engine.estimate(query)
        engine.init_context()
        assert engine.estimate(query) >= 0.0

    def test_featurize_ast_equivalent(self, imdb, config):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, config)
        forge.train_count_models(imdb, tables=["title"])
        record = registry.latest("bn", "title")
        engine = BNInferenceEngine(imdb.catalog, ModelValidator(1 << 30))
        engine.load_model(record.blob)
        engine.init_context()
        from repro.sql import parse_sql

        sql = "SELECT COUNT(*) FROM title WHERE kind_id = 1"
        via_sql = engine.estimate(engine.featurize_sql_query(sql))
        via_ast = engine.estimate(engine.featurize_ast(parse_sql(sql)))
        assert via_sql == via_ast

    def test_featurize_sql_query_shares_the_catalog_memo(self, imdb):
        from repro.sql import bind_sql

        engine = BNInferenceEngine(imdb.catalog, ModelValidator(1 << 30))
        sql = "SELECT COUNT(*) FROM title WHERE kind_id = 2"
        assert engine.featurize_sql_query(sql) is bind_sql(sql, imdb.catalog)

    def test_load_model_rejects_garbage(self, imdb):
        engine = BNInferenceEngine(imdb.catalog, ModelValidator(1 << 30))
        assert not engine.load_model(b"not a model")
        assert not engine.validate().ok


class TestMonitor:
    def test_count_gate_passes_good_model(self, imdb, config, imdb_factorjoin):
        monitor = ModelMonitor(imdb, config)
        report = monitor.assess_count_model("title", imdb_factorjoin)
        assert report.qerrors
        assert report.passed

    def test_count_gate_fails_terrible_estimator(self, imdb, config):
        from repro.estimators.base import CountEstimator

        class Terrible(CountEstimator):
            name = "terrible"

            def estimate_count(self, query):
                return 1e12

        monitor = ModelMonitor(imdb, config)
        report = monitor.assess_count_model("title", Terrible())
        assert not report.passed

    def test_ndv_assessment(self, imdb, config, imdb_rbx):
        monitor = ModelMonitor(imdb, config)
        report = monitor.assess_ndv_column("title", "production_year", imdb_rbx)
        assert report.qerrors

    def test_collect_column_samples(self, aeolus, config):
        monitor = ModelMonitor(aeolus, config)
        samples = monitor.collect_column_samples(
            "impressions", "session_id", rates=(0.02, 0.05), repeats=2
        )
        assert len(samples) == 4
        truth = samples[0][1]
        column = aeolus.catalog.table("impressions").column("session_id")
        assert truth == column.distinct_count()

    def test_empty_report_is_untested_not_passing(self):
        """A model the monitor could not exercise must not read as healthy.

        ``p90``/``worst`` used to return 1.0 for an empty q-error list,
        which silently graded an untested model as perfect."""
        from repro.core.monitor import MonitorReport

        report = MonitorReport(name="bn:ghost")
        assert report.untested
        assert report.passed is None
        assert report.p90 is None
        assert report.worst is None

    def test_assessed_report_is_not_untested(self):
        from repro.core.monitor import MonitorReport

        report = MonitorReport(name="bn:t", qerrors=[1.0, 2.0], passed=True)
        assert not report.untested
        assert report.p90 is not None
        assert report.worst == 2.0


class TestByteCardFacade:
    def test_build_loads_all_models(self, built, aeolus):
        keys = built.loader.loaded_keys()
        assert ("rbx", "universal") in keys
        bn_names = {name for kind, name in keys if kind == "bn"}
        assert bn_names == set(aeolus.catalog.table_names())

    def test_estimates_whole_workload(self, built, aeolus):
        from repro.workloads import aeolus_online, true_count
        from repro.metrics import qerror

        workload = aeolus_online(aeolus, num_queries=10, seed=55)
        errors = [
            qerror(built.estimate_count(q), workload.true_counts[q.name])
            for q in workload.queries
        ]
        assert np.median(errors) < 20.0

    def test_ndv_served(self, built, aeolus):
        from repro.sql.query import AggKind, AggSpec

        q = CardQuery(
            tables=("impressions",),
            predicates=(
                TablePredicate("impressions", "region", PredicateOp.EQ, 1.0),
            ),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "impressions", "user_segment"),
        )
        assert built.estimate_ndv(q) >= 1.0

    def test_fallback_on_gated_table(self, built, aeolus):
        """Force a table onto the fallback list: estimates must equal the
        traditional estimator's."""
        built.set_fallback("ads", True)
        try:
            q = CardQuery(
                tables=("ads",),
                predicates=(
                    TablePredicate("ads", "target_platform", PredicateOp.EQ, 1.0),
                ),
            )
            assert built.estimate_count(q) == built._traditional_count.estimate_count(q)
        finally:
            built.set_fallback("ads", False)

    def test_suite_integrates_with_engine(self, built, aeolus):
        from repro.engine import EngineSession
        from repro.workloads import aeolus_online, true_count

        workload = aeolus_online(aeolus, num_queries=5, seed=56)
        session = EngineSession(aeolus.catalog, built.as_suite())
        for q in workload.queries:
            result = session.run(q)
            assert result.result_rows == true_count(aeolus.catalog, q)

    def test_status_snapshot(self, built):
        status = built.status()
        assert status.loaded_models
        assert isinstance(status.fallback_tables, set)

    def test_refresh_idempotent(self, built, aeolus):
        q = CardQuery(
            tables=("ads",),
            predicates=(
                TablePredicate("ads", "content_type", PredicateOp.EQ, 2.0),
            ),
        )
        before = built.estimate_count(q)
        built.refresh()
        assert built.estimate_count(q) == pytest.approx(before)

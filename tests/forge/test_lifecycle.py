"""End-to-end tests of the asynchronous model lifecycle.

The acceptance scenario: a drifted model (forced via a corrupted-CPT
fixture -- one-hot rows are row-stochastic, so they pass the health
validator, but they are semantically garbage, so they fail the Q-Error
gate) is automatically retrained by a background worker, persisted with a
new version, hot-swapped as a new model snapshot whose tokens the drifted
model's cached answers do not match, and passes re-assessment.  Then a fresh ByteCard
warm-starts from the store directory and serves estimates with **zero**
training calls.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ByteCard, ByteCardConfig
from repro.core.modelforge import IngestionSignal
from repro.core.serialization import deserialize_bn, serialize_bn
from repro.errors import ModelError
from repro.forge import ForgeConfig, JobState
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    PredicateOp,
    TablePredicate,
)

TABLE = "ads"

QUERY = CardQuery(
    tables=(TABLE,),
    predicates=(
        TablePredicate(TABLE, "target_platform", PredicateOp.EQ, 1.0),
    ),
)


@pytest.fixture(scope="module")
def bundle():
    from repro.datasets import make_aeolus

    return make_aeolus(scale=0.15, seed=91)


@pytest.fixture(scope="module")
def config():
    return ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=300,
        rbx_epochs=5,
        monitor_queries_per_table=6,
        join_bucket_count=40,
        max_bins=32,
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("forge-store")


@pytest.fixture(scope="module")
def forge_env(bundle, config, store_dir):
    """One built ByteCard with its forge manager and serving tier."""
    bytecard = ByteCard.build(bundle, config=config, run_monitor=False)
    manager = bytecard.forge(store_dir, ForgeConfig(backoff_base_s=0.01))
    service = bytecard.serve()
    yield bytecard, manager, service
    service.close()
    manager.close(drain=False)


def corrupt_bn(bytecard, table):
    """Publish a corrupted-CPT version of a table's BN.

    Every CPD row becomes one-hot: still row-stochastic (passes the health
    detector) but semantically garbage (fails the Q-Error gate).
    """
    record = bytecard.registry.latest("bn", table)
    assert record is not None
    model = deserialize_bn(record.blob)
    for cpd in model.cpds:
        flat = cpd.reshape(-1, cpd.shape[-1])
        flat[:] = 0.0
        flat[:, 0] = 1.0
    model.context = None
    bytecard.registry.publish("bn", table, serialize_bn(model))
    bytecard.refresh()


class TestPersistOnAttach:
    def test_current_models_persisted(self, forge_env):
        bytecard, manager, _service = forge_env
        stored = manager.store.keys()
        assert sorted(bytecard.registry.keys()) == stored
        assert ("bn", TABLE) in stored
        assert ("rbx", "universal") in stored
        for kind, name in stored:
            assert manager.store.current(kind, name).version == 1

    def test_persist_all_is_idempotent(self, forge_env):
        _bytecard, manager, _service = forge_env
        assert manager.persist_all() == []  # same checksums: no new versions


class TestDriftTriggeredRetrain:
    def test_corrupted_model_is_retrained_persisted_and_hot_swapped(
        self, forge_env
    ):
        bytecard, manager, service = forge_env

        corrupt_bn(bytecard, TABLE)
        generation_before = bytecard.loader.generation
        snapshot_before = bytecard.snapshot()
        # Prime the serving cache against the corrupted generation.
        service.estimate_count_detail(QUERY, deadline_ms=None)
        assert (
            service.estimate_count_detail(QUERY, deadline_ms=None).source
            == "cache"
        )

        # One monitor pass: the corrupted model fails its gate, the
        # fallback is imposed, and the assessment listener schedules a
        # background retrain on its own.
        reports = manager.run_monitor_cycle()
        report = {r.name: r for r in reports}[TABLE]
        assert report.passed is False
        assert TABLE in bytecard.fallback_tables
        submitted = bytecard.obs.counter(
            "forge_jobs_submitted_total", kind="bn"
        )
        assert submitted.value >= 1  # the listener queued a retrain

        assert manager.drain(300.0)

        # Persisted with a new version...
        versions = [v.version for v in manager.store.versions("bn", TABLE)]
        assert versions == [1, 2]
        assert manager.store.current("bn", TABLE).version == 2
        # ...hot-swapped as a new snapshot, under whose tokens the cached
        # answer of the corrupted model is never asked for again...
        assert bytecard.loader.generation > generation_before
        assert bytecard.snapshot() is not snapshot_before
        assert (
            service.estimate_count_detail(QUERY, deadline_ms=None).source
            != "cache"
        )
        # ...and the re-assessment passed, lifting the fallback.
        assert TABLE not in bytecard.fallback_tables
        drift_triggers = bytecard.obs.counter(
            "forge_drift_triggers_total", kind="count", reason="failing"
        )
        assert drift_triggers.value >= 1

    def test_healthy_models_do_not_schedule_jobs(self, forge_env):
        _bytecard, manager, _service = forge_env
        manager.run_monitor_cycle()
        assert manager.drain(300.0)
        # Everything passes now: no retrain got queued, so no key moved
        # beyond the versions minted so far.
        assert manager.store.current("bn", TABLE).version == 2


@pytest.fixture
def ndv_env(bundle, config, tmp_path):
    """A built ByteCard whose forge runs jobs only on ``run_ready``."""
    bytecard = ByteCard.build(bundle, config=config, run_monitor=False)
    manager = bytecard.forge(tmp_path, ForgeConfig(num_workers=0, max_attempts=1))
    yield bytecard, manager
    manager.close()


class TestNdvAssessments:
    def test_a_failing_ndv_assessment_schedules_no_retrain(self, bundle, ndv_env):
        """Retraining the universal RBX network would republish the same
        memoised network and only retire every cached NDV answer: a failing
        NDV assessment leaves the scheduler empty and the RBX token as it
        was."""
        bytecard, manager = ndv_env
        token = bytecard.snapshot().rbx_token
        table, column = bundle.high_ndv_columns[0]
        wrong = SimpleNamespace(estimate_ndv=lambda query: 1e12)
        report = bytecard.monitor.assess_ndv_column(table, column, wrong)
        assert report.passed is False
        assert manager.scheduler.pending_count() == 0
        assert manager.run_ready() == []
        assert bytecard.snapshot().rbx_token == token

    def test_an_rbx_job_has_no_trainer(self, ndv_env):
        """Only BN retrains exist: a directly submitted RBX job fails
        without publishing anything."""
        bytecard, manager = ndv_env
        snapshot = bytecard.snapshot()
        job = manager.submit_retrain("rbx", "universal")
        assert manager.run_ready() == [job]
        assert job.state is JobState.FAILED
        assert "no trainer for model kind 'rbx'" in job.error
        assert bytecard.snapshot() is snapshot


class TestSignalPath:
    def test_ingestion_signal_trains_and_persists(self, forge_env):
        bytecard, manager, _service = forge_env
        before = manager.store.current("bn", "clicks").version
        job = manager.submit_signal(
            IngestionSignal(
                table="clicks", source="upstream", details={"rows": 999}
            )
        )
        assert job.wait(300.0)
        assert job.state is JobState.SUCCEEDED
        assert job.result.artifact.version == before + 1
        assert job.result.healthy
        assert manager.store.current("bn", "clicks").version == before + 1
        # The fallback state reflects the post-swap re-assessment.
        assert "clicks" not in bytecard.fallback_tables


class TestRollback:
    def test_rollback_hot_swaps_previous_version(self, forge_env):
        bytecard, manager, _service = forge_env
        generation_before = bytecard.loader.generation
        current = manager.store.current("bn", TABLE)
        assert current.version == 2
        artifact = manager.rollback("bn", TABLE)
        assert artifact.version == 1
        assert manager.store.current("bn", TABLE).version == 1
        # The rolled-back blob was republished and hot-swapped in.
        assert bytecard.loader.generation > generation_before
        latest = bytecard.registry.latest("bn", TABLE)
        assert latest.blob == manager.store.read_blob(artifact)
        # Serving still works on the rolled-back model.
        assert bytecard.estimate_count(QUERY) >= 0.0


class TestWarmStart:
    def test_from_store_serves_with_zero_training(
        self, forge_env, bundle, config, store_dir, monkeypatch
    ):
        bytecard, manager, _service = forge_env
        assert manager.drain(300.0)

        # Any training attempt during the warm start is a failure.
        def no_training(*args, **kwargs):
            raise AssertionError("warm start must not train")

        monkeypatch.setattr(
            "repro.core.modelforge.fit_tree_bn", no_training
        )
        monkeypatch.setattr("repro.core.modelforge.train_rbx", no_training)

        warm = ByteCard.from_store(bundle, store_dir, config=config)
        assert sorted(warm.loader.loaded_keys()) == sorted(
            bytecard.loader.loaded_keys()
        )
        assert warm.forge_service.history == []
        estimate = warm.estimate_count(QUERY)
        assert np.isfinite(estimate) and estimate > 0.0
        ndv_query = CardQuery(
            tables=("impressions",),
            agg=AggSpec(AggKind.COUNT_DISTINCT, "impressions", "session_id"),
        )
        assert warm.estimate_ndv(ndv_query) > 0.0

    def test_from_store_refuses_empty_directory(
        self, bundle, config, tmp_path
    ):
        with pytest.raises(ModelError):
            ByteCard.from_store(bundle, tmp_path / "empty", config=config)


class TestServingThroughAThreadedRetrain:
    def test_requests_are_answered_while_a_worker_trains(
        self, forge_env, bundle, monkeypatch
    ):
        """Training on a forge worker competes with a serving session: every
        request is answered, the fallback share stays within the stream
        soak's stall budget, and answers after the swap are the new
        snapshot's, under its tokens."""
        import math
        import threading

        from repro.engine import EngineSession
        from repro.serving import ServingConfig
        from repro.stream import StreamConfig
        from repro.workloads import aeolus_online

        bytecard, manager, _service = forge_env
        table = "impressions"
        queries = [
            q
            for q in aeolus_online(bundle, num_queries=12, seed=5).queries
            if table in q.tables
        ]
        assert queries
        first_request = threading.Event()
        train = manager.scheduler.runner

        def after_first_request(job):
            assert first_request.wait(60.0)
            return train(job)

        monkeypatch.setattr(manager.scheduler, "runner", after_first_request)
        before = bytecard.snapshot()
        service = bytecard.serve(ServingConfig(deadline_ms=250.0))
        session = EngineSession(bundle.catalog, service=service)
        try:
            job = manager.submit_retrain("bn", table)
            while_training = 0
            while not job.done:
                for query in queries:
                    assert session.run(query).result_rows >= 0
                    served = service.estimate_count_detail(query)
                    assert math.isfinite(served.value) and served.value >= 0
                    while_training += 1
                    first_request.set()
            assert job.state is JobState.SUCCEEDED
            assert while_training >= 1
            stats = service.stats()
            assert stats.requests >= while_training
            degraded = (stats.rejected + stats.timeouts) / stats.requests
            assert degraded <= StreamConfig().stall_fallback_budget

            after = bytecard.snapshot()
            assert after is not before
            for query in queries:
                assert after.cache_key("count", query) != before.cache_key(
                    "count", query
                )
                served = service.estimate_count_detail(query, deadline_ms=None)
                assert served.value == after.estimate_count(query)
        finally:
            service.close()

"""Tests for the Model Validator and Model Loader."""

import numpy as np
import pytest

from repro.core.engine import BNInferenceEngine
from repro.core.loader import ModelLoader
from repro.core.registry import ModelRegistry
from repro.core.serialization import serialize_bn, serialize_rbx
from repro.core.validator import ModelValidator
from repro.estimators.bn import fit_tree_bn
from repro.estimators.rbx import MLP
from repro.estimators.rbx.profile import RBX_FEATURE_DIM
from repro.storage import Catalog, Table


@pytest.fixture()
def small_catalog():
    rng = np.random.default_rng(2)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "t", {"a": rng.integers(0, 5, 2000), "b": rng.integers(0, 50, 2000)}
        )
    )
    return catalog


@pytest.fixture()
def bn_blob(small_catalog):
    model = fit_tree_bn(small_catalog.table("t"), ["a", "b"])
    return serialize_bn(model), model


class TestSizeChecker:
    def test_accepts_small(self):
        validator = ModelValidator(max_model_bytes=1000)
        assert validator.check_size(b"x" * 100).ok

    def test_refuses_oversize(self):
        validator = ModelValidator(max_model_bytes=10)
        report = validator.check_size(b"x" * 100)
        assert not report.ok
        assert "exceeds" in report.problems[0]


class TestHealthDetector:
    def test_valid_bn_passes(self, bn_blob):
        _blob, model = bn_blob
        assert ModelValidator(1 << 30).check_bn_health(model).ok

    def test_cycle_detected(self, bn_blob):
        _blob, model = bn_blob
        broken = type(model)(
            table_name=model.table_name,
            columns=model.columns,
            discretizers=model.discretizers,
            parents=np.array([1, 0]),  # a <-> b cycle, no root
            cpds=model.cpds,
            total_rows=model.total_rows,
        )
        report = ModelValidator(1 << 30).check_bn_health(broken)
        assert not report.ok

    def test_non_stochastic_cpd_detected(self, bn_blob):
        _blob, model = bn_blob
        bad_cpds = [c.copy() for c in model.cpds]
        bad_cpds[0] = bad_cpds[0] * 2.0
        broken = type(model)(
            table_name=model.table_name,
            columns=model.columns,
            discretizers=model.discretizers,
            parents=model.parents,
            cpds=bad_cpds,
            total_rows=model.total_rows,
        )
        report = ModelValidator(1 << 30).check_bn_health(broken)
        assert not report.ok
        assert any("sum to 1" in p for p in report.problems)

    def test_negative_cpd_detected(self, bn_blob):
        _blob, model = bn_blob
        bad_cpds = [c.copy() for c in model.cpds]
        bad_cpds[0][0] = -0.5
        broken = type(model)(
            table_name=model.table_name,
            columns=model.columns,
            discretizers=model.discretizers,
            parents=model.parents,
            cpds=bad_cpds,
            total_rows=model.total_rows,
        )
        assert not ModelValidator(1 << 30).check_bn_health(broken).ok

    def test_valid_rbx_passes(self):
        validator = ModelValidator(1 << 30)
        model = MLP(RBX_FEATURE_DIM)
        assert validator.check_rbx_health(model, RBX_FEATURE_DIM).ok

    def test_rbx_input_mismatch(self):
        validator = ModelValidator(1 << 30)
        model = MLP(10)
        assert not validator.check_rbx_health(model, RBX_FEATURE_DIM).ok

    def test_rbx_nan_weights(self):
        validator = ModelValidator(1 << 30)
        model = MLP(RBX_FEATURE_DIM)
        model.weights[2][0, 0] = np.nan
        report = validator.check_rbx_health(model, RBX_FEATURE_DIM)
        assert not report.ok


class TestLoader:
    def _loader(self, catalog, registry, max_model=1 << 30, max_total=1 << 30):
        validator = ModelValidator(max_model)
        return ModelLoader(
            registry,
            validator,
            engine_factory=lambda kind, name: BNInferenceEngine(catalog, validator),
            max_total_bytes=max_total,
        )

    def test_loads_published_model(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        loader = self._loader(small_catalog, registry)
        report = loader.refresh()
        assert report.loaded == [("bn", "t")]
        assert loader.get("bn", "t") is not None

    def test_timestamp_gating(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        loader = self._loader(small_catalog, registry)
        loader.refresh()
        second = loader.refresh()
        assert second.unchanged == [("bn", "t")]
        assert not second.loaded

    def test_newer_version_replaces(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        loader = self._loader(small_catalog, registry)
        loader.refresh()
        registry.publish("bn", "t", blob)
        report = loader.refresh()
        assert report.loaded == [("bn", "t")]

    def test_oversize_refused_keeps_nothing(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        loader = self._loader(small_catalog, registry, max_model=10)
        report = loader.refresh()
        assert report.refused and report.refused[0][:2] == ("bn", "t")
        assert loader.get("bn", "t") is None

    def test_corrupt_blob_refused(self, small_catalog):
        registry = ModelRegistry()
        registry.publish("bn", "t", b"garbage")
        loader = self._loader(small_catalog, registry)
        report = loader.refresh()
        assert report.refused[0][2] == "deserialization failed"

    def test_unhealthy_model_refused(self, small_catalog, bn_blob):
        """A blob whose CPDs were corrupted deserializes but fails health."""
        blob, model = bn_blob
        bad_cpds = [c.copy() for c in model.cpds]
        bad_cpds[0] = bad_cpds[0] * 3.0
        from repro.core.serialization import pack

        broken = type(model)(
            table_name=model.table_name,
            columns=model.columns,
            discretizers=model.discretizers,
            parents=model.parents,
            cpds=bad_cpds,
            total_rows=model.total_rows,
        )
        registry = ModelRegistry()
        registry.publish("bn", "t", serialize_bn(broken))
        loader = self._loader(small_catalog, registry)
        report = loader.refresh()
        assert report.refused
        del pack

    def test_lru_eviction(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        for name in ("a", "b", "c"):
            registry.publish("bn", name, blob)
        loader = self._loader(
            small_catalog, registry, max_total=int(len(blob) * 2.5)
        )
        report = loader.refresh()
        assert len(report.evicted) == 1
        assert loader.total_bytes() <= int(len(blob) * 2.5)

    def test_get_updates_recency(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "a", blob)
        registry.publish("bn", "b", blob)
        loader = self._loader(small_catalog, registry)
        loader.refresh()
        loader.get("bn", "a")  # touch 'a' so 'b' becomes LRU
        loader.max_total_bytes = len(blob)
        report = loader.refresh()
        assert ("bn", "b") in report.evicted
        assert loader.get("bn", "a") is not None


class TestLoaderBookkeeping:
    """Regression tests for LRU recency accounting and refresh signalling."""

    def _loader(self, catalog, registry, max_total=1 << 30):
        validator = ModelValidator(1 << 30)
        return ModelLoader(
            registry,
            validator,
            engine_factory=lambda kind, name: BNInferenceEngine(catalog, validator),
            max_total_bytes=max_total,
        )

    def test_refresh_assigns_distinct_recency_per_model(self, small_catalog, bn_blob):
        """Models loaded in one refresh pass must not share a recency tick --
        a shared tick made later eviction order depend on dict iteration."""
        blob, _model = bn_blob
        registry = ModelRegistry()
        for name in ("a", "b", "c"):
            registry.publish("bn", name, blob)
        loader = self._loader(small_catalog, registry)
        loader.refresh()
        ticks = [loader._loaded[("bn", n)].last_used for n in ("a", "b", "c")]
        assert len(set(ticks)) == 3

    def test_get_strictly_increases_recency(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        loader = self._loader(small_catalog, registry)
        loader.refresh()
        first = loader._loaded[("bn", "t")].last_used
        loader.get("bn", "t")
        second = loader._loaded[("bn", "t")].last_used
        loader.get("bn", "t")
        third = loader._loaded[("bn", "t")].last_used
        assert first < second < third

    def test_eviction_tie_break_is_insertion_order(self, small_catalog, bn_blob):
        """With recency forced equal, the earliest-inserted model goes first."""
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "a", blob)
        registry.publish("bn", "b", blob)
        loader = self._loader(small_catalog, registry)
        loader.refresh()
        for entry in loader._loaded.values():  # white-box: force a tie
            entry.last_used = 0
        loader.max_total_bytes = len(blob)
        report = loader.refresh()
        assert report.evicted == [("bn", "a")]
        assert loader.get("bn", "b") is not None

    def test_generation_bumps_only_on_change(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        loader = self._loader(small_catalog, registry)
        assert loader.generation == 0
        loader.refresh()
        assert loader.generation == 1
        loader.refresh()  # nothing new published
        assert loader.generation == 1
        registry.publish("bn", "t", blob)
        loader.refresh()
        assert loader.generation == 2


class TestRefusalObservability:
    """Refused loads carry a reason category and a labeled obs counter."""

    def _loader(self, catalog, registry, metrics=None, max_model=1 << 30):
        validator = ModelValidator(max_model)
        return ModelLoader(
            registry,
            validator,
            engine_factory=lambda kind, name: BNInferenceEngine(catalog, validator),
            max_total_bytes=1 << 30,
            metrics=metrics,
        )

    def _metrics(self):
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()

    def test_counters_preregistered_at_zero(self, small_catalog):
        from repro.core.loader import REFUSAL_REASONS
        from repro.obs import export_text

        metrics = self._metrics()
        self._loader(small_catalog, ModelRegistry(), metrics=metrics)
        text = export_text(metrics)
        for reason in REFUSAL_REASONS:
            line = f'loader_models_refused_total{{reason="{reason}"}} 0'
            assert line in text

    def test_size_refusal_reason(self, small_catalog, bn_blob):
        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        metrics = self._metrics()
        loader = self._loader(
            small_catalog, registry, metrics=metrics, max_model=10
        )
        report = loader.refresh()
        assert report.refusal_reasons == ["size"]
        (kind, name, reason, detail) = report.refusals()[0]
        assert (kind, name, reason) == ("bn", "t", "size")
        assert "exceeds" in detail
        assert metrics.counter(
            "loader_models_refused_total", reason="size"
        ).value == 1

    def test_deserialize_refusal_reason(self, small_catalog):
        registry = ModelRegistry()
        registry.publish("bn", "t", b"garbage")
        metrics = self._metrics()
        loader = self._loader(small_catalog, registry, metrics=metrics)
        report = loader.refresh()
        assert report.refusal_reasons == ["deserialize"]
        assert metrics.counter(
            "loader_models_refused_total", reason="deserialize"
        ).value == 1

    def test_health_refusal_reason(self, small_catalog, bn_blob):
        _blob, model = bn_blob
        bad_cpds = [c.copy() for c in model.cpds]
        bad_cpds[0] = bad_cpds[0] * 3.0
        broken = type(model)(
            table_name=model.table_name,
            columns=model.columns,
            discretizers=model.discretizers,
            parents=model.parents,
            cpds=bad_cpds,
            total_rows=model.total_rows,
        )
        registry = ModelRegistry()
        registry.publish("bn", "t", serialize_bn(broken))
        metrics = self._metrics()
        loader = self._loader(small_catalog, registry, metrics=metrics)
        report = loader.refresh()
        assert report.refusal_reasons == ["health"]
        assert metrics.counter(
            "loader_models_refused_total", reason="health"
        ).value == 1

    def test_refusals_surface_in_bytecard_metrics_text(self, small_catalog):
        """The labeled series reaches the facade-level text export."""
        metrics = self._metrics()
        registry = ModelRegistry()
        registry.publish("bn", "t", b"garbage")
        loader = self._loader(small_catalog, registry, metrics=metrics)
        loader.refresh()
        from repro.obs import export_text

        text = export_text(metrics)
        assert 'loader_models_refused_total{reason="deserialize"} 1' in text


class TestRefreshLocking:
    """refresh() deserializes/validates outside the map lock: get() on the
    serving hot path must never block behind a slow load."""

    def test_get_served_while_refresh_deserializes(self, small_catalog, bn_blob):
        import threading

        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        validator = ModelValidator(1 << 30)
        in_load = threading.Event()
        release = threading.Event()
        got_during_load = []

        class SlowEngine(BNInferenceEngine):
            def load_model(self, raw: bytes) -> bool:
                if in_load.is_set():
                    # second refresh: block mid-deserialize
                    assert release.wait(5.0)
                return super().load_model(raw)

        loader = ModelLoader(
            registry,
            validator,
            engine_factory=lambda kind, name: SlowEngine(small_catalog, validator),
            max_total_bytes=1 << 30,
        )
        loader.refresh()  # resident version installed
        in_load.set()
        registry.publish("bn", "t", blob)  # newer version to load slowly

        refresher = threading.Thread(target=loader.refresh)
        refresher.start()
        try:
            # While the refresh thread is stuck inside load_model, the
            # resident engine must still be reachable without blocking.
            getter = threading.Thread(
                target=lambda: got_during_load.append(loader.get("bn", "t"))
            )
            getter.start()
            getter.join(2.0)
            assert not getter.is_alive(), "get() blocked behind refresh()"
            assert got_during_load and got_during_load[0] is not None
        finally:
            release.set()
            refresher.join(5.0)
        assert loader.get("bn", "t") is not None

    def test_concurrent_refreshes_install_newest(self, small_catalog, bn_blob):
        import threading

        blob, _model = bn_blob
        registry = ModelRegistry()
        registry.publish("bn", "t", blob)
        validator = ModelValidator(1 << 30)
        loader = ModelLoader(
            registry,
            validator,
            engine_factory=lambda kind, name: BNInferenceEngine(
                small_catalog, validator
            ),
            max_total_bytes=1 << 30,
        )

        def publish_and_refresh():
            registry.publish("bn", "t", blob)
            loader.refresh()

        threads = [
            threading.Thread(target=publish_and_refresh) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = loader.refresh()
        # Everything newest is resident; nothing newer remains to load.
        assert final.unchanged == [("bn", "t")]
        record = registry.latest("bn", "t")
        assert record is not None

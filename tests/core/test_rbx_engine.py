"""Tests for the RBX inference engine (the NDV side of the Figure 6 API)."""

import numpy as np
import pytest

from repro.core.engine import RBXInferenceEngine
from repro.core.serialization import serialize_rbx
from repro.core.validator import ModelValidator
from repro.errors import ModelError
from repro.estimators.rbx.estimator import RBXNdvEstimator
from repro.metrics import qerror
from repro.utils.rng import derive_rng
from repro.workloads import true_ndv


@pytest.fixture()
def engine(imdb, rbx_network):
    samples = {
        name: imdb.catalog.table(name).sample(
            min(4000, len(imdb.catalog.table(name))), derive_rng(3, "s", name)
        )
        for name in imdb.catalog.table_names()
    }
    eng = RBXInferenceEngine(imdb.catalog, ModelValidator(1 << 30), samples)
    assert eng.load_model(serialize_rbx(rbx_network))
    assert eng.validate().ok
    eng.init_context()
    return eng


class TestRBXEngine:
    def test_estimate_via_sql_featurization(self, imdb, engine):
        query = engine.featurize_sql_query(
            "SELECT COUNT(DISTINCT person_id) FROM cast_info WHERE role_id = 1"
        )
        estimate = engine.estimate(query)
        truth = true_ndv(imdb.catalog, query)
        assert qerror(estimate, truth) < 6.0

    def test_requires_context(self, imdb, rbx_network):
        eng = RBXInferenceEngine(imdb.catalog, ModelValidator(1 << 30), {})
        eng.load_model(serialize_rbx(rbx_network))
        with pytest.raises(ModelError):
            eng.estimate(
                eng.featurize_sql_query(
                    "SELECT COUNT(DISTINCT kind_id) FROM title WHERE episode_nr = 1"
                )
            )

    def test_requires_count_distinct_query(self, engine):
        query = engine.featurize_sql_query("SELECT COUNT(*) FROM title")
        with pytest.raises(ModelError):
            engine.estimate(query)

    def test_missing_sample_rejected(self, imdb, rbx_network):
        eng = RBXInferenceEngine(imdb.catalog, ModelValidator(1 << 30), {})
        eng.load_model(serialize_rbx(rbx_network))
        eng.init_context()
        query = eng.featurize_sql_query(
            "SELECT COUNT(DISTINCT kind_id) FROM title WHERE episode_nr = 1"
        )
        with pytest.raises(ModelError):
            eng.estimate(query)

    def test_context_freezes_weights(self, engine):
        with pytest.raises(ValueError):
            engine.network.weights[0][0, 0] = 1.0

    def test_garbage_blob_rejected(self, imdb):
        eng = RBXInferenceEngine(imdb.catalog, ModelValidator(1 << 30), {})
        assert not eng.load_model(b"junk")
        assert not eng.validate().ok

    def test_estimates_equal_the_served_estimator(
        self, imdb, imdb_workload, rbx_network
    ):
        """Over a workload's NDV queries, on samples smaller than their
        tables, the engine returns exactly the served estimator's answer."""
        samples = {
            name: imdb.catalog.table(name).sample(700, derive_rng(4, "s", name))
            for name in imdb.catalog.table_names()
        }
        queries = imdb_workload.ndv_queries
        assert queries
        for table in {query.agg.table for query in queries}:
            assert len(samples[table]) < len(imdb.catalog.table(table))
        eng = RBXInferenceEngine(imdb.catalog, ModelValidator(1 << 30), samples)
        assert eng.load_model(serialize_rbx(rbx_network))
        eng.init_context()
        served = RBXNdvEstimator(imdb.catalog, rbx_network, samples=samples)
        assert [eng.estimate(q) for q in queries] == [
            served.estimate_ndv(q) for q in queries
        ]

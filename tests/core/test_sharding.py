"""Tests for per-shard model training (ModelForge's shard specialization).

The paper: "ModelForge Service facilitates the specialized training for
individual table shards, especially when the data distribution varies
notably across different shards."  These tests build a table whose
distribution genuinely differs per shard and verify the per-shard models
out-estimate the global one on shard-local predicates.
"""

import numpy as np
import pytest

from repro.core import ByteCardConfig, ModelForgeService, ModelRegistry
from repro.core.serialization import deserialize_bn
from repro.datasets.base import DatasetBundle
from repro.metrics import qerror
from repro.sql.query import PredicateOp, TablePredicate
from repro.storage import Catalog, Table


@pytest.fixture(scope="module")
def sharded_bundle():
    """A table where shard parity flips the value distribution."""
    rng = np.random.default_rng(31)
    n = 24_000
    shard_key = rng.integers(0, 1_000_000, n)
    parity = shard_key % 2
    # Even shards: values concentrated low; odd shards: concentrated high.
    value = np.where(
        parity == 0,
        rng.integers(0, 20, n),
        rng.integers(80, 100, n),
    )
    other = rng.integers(0, 50, n)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "events", {"shard_key": shard_key, "value": value, "other": other}
        )
    )
    return DatasetBundle(
        name="sharded",
        catalog=catalog,
        filter_columns={"events": ["value", "other"]},
        seed=13,
    )


class TestShardTraining:
    def test_publishes_one_model_per_shard(self, sharded_bundle):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, ByteCardConfig(training_sample_rows=8000))
        infos = forge.train_sharded(sharded_bundle, "events", "shard_key", 2)
        assert {i.name for i in infos} == {"events@shard0", "events@shard1"}

    def test_shard_models_beat_global_on_shard_data(self, sharded_bundle):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, ByteCardConfig(training_sample_rows=8000))
        forge.train_count_models(sharded_bundle, tables=["events"])
        forge.train_sharded(sharded_bundle, "events", "shard_key", 2)

        global_record = registry.latest("bn", "events")
        shard0_record = registry.latest("bn", "events@shard0")
        assert global_record is not None and shard0_record is not None
        global_model = deserialize_bn(global_record.blob)
        shard0_model = deserialize_bn(shard0_record.blob)

        # Shard 0 (even keys) holds only low values; estimate P(value >= 80)
        # within the shard.  The global model blends both shards and
        # overestimates badly; the shard model is near-exact.
        table = sharded_bundle.catalog.table("events")
        mask = table.column("shard_key").values % 2 == 0
        shard_rows = int(mask.sum())
        truth = int(
            ((table.column("value").values >= 80) & mask).sum()
        )
        pred = [TablePredicate("events", "value", PredicateOp.GE, 80.0)]
        shard_estimate = shard0_model.selectivity(pred) * shard_rows
        global_estimate = global_model.selectivity(pred) * shard_rows
        assert qerror(shard_estimate, truth) < qerror(global_estimate, truth)

    def test_shard_models_sum_to_global_counts(self, sharded_bundle):
        registry = ModelRegistry()
        forge = ModelForgeService(registry, ByteCardConfig(training_sample_rows=8000))
        forge.train_sharded(sharded_bundle, "events", "shard_key", 3)
        total = 0
        for shard in range(3):
            record = registry.latest("bn", f"events@shard{shard}")
            if record is None:
                continue
            total += deserialize_bn(record.blob).total_rows
        assert total == len(sharded_bundle.catalog.table("events"))

    def test_loader_skips_shard_models_for_factorjoin(self, sharded_bundle):
        """The ByteCard facade assembles FactorJoin from whole-table models
        only; shard models stay addressable individually."""
        from repro.core import ByteCard

        config = ByteCardConfig(
            training_sample_rows=4000, rbx_corpus_size=300, rbx_epochs=5
        )
        bytecard = ByteCard(sharded_bundle, config=config)
        bytecard.forge_service.train_count_models(sharded_bundle)
        bytecard.forge_service.train_sharded(sharded_bundle, "events", "shard_key", 2)
        bytecard.refresh()
        assert bytecard.snapshot().factorjoin is not None
        assert set(bytecard.snapshot().factorjoin.models) == {"events"}
        assert bytecard.loader.get("bn", "events@shard0") is not None

"""Tests for model serialization and the registry."""

import numpy as np
import pytest

from repro.core.registry import ModelRegistry
from repro.core.serialization import (
    deserialize_bn,
    deserialize_rbx,
    pack,
    serialize_bn,
    serialize_rbx,
    unpack,
)
from repro.errors import ModelError
from repro.estimators.bn import fit_tree_bn
from repro.estimators.rbx import MLP
from repro.sql.query import PredicateOp, TablePredicate
from repro.storage import Table


@pytest.fixture(scope="module")
def bn_model():
    rng = np.random.default_rng(11)
    table = Table.from_arrays(
        "t",
        {
            "a": rng.integers(0, 6, 3000),
            "b": rng.integers(0, 300, 3000),
        },
    )
    return fit_tree_bn(table, ["a", "b"])


class TestBlobFormat:
    def test_pack_unpack_roundtrip(self):
        kind, meta, arrays = unpack(
            pack("x", {"k": 1}, {"arr": np.arange(5)})
        )
        assert kind == "x"
        assert meta == {"k": 1}
        assert np.array_equal(arrays["arr"], np.arange(5))

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelError):
            unpack(b"NOPE" + b"\x00" * 20)

    def test_truncated_header_rejected(self):
        blob = pack("x", {}, {"a": np.arange(3)})
        with pytest.raises(ModelError):
            unpack(blob[:14])

    def test_corrupt_body_rejected(self):
        blob = pack("x", {}, {"a": np.arange(3)})
        with pytest.raises(ModelError):
            unpack(blob[:-10])


class TestBNSerialization:
    def test_roundtrip_preserves_estimates(self, bn_model):
        restored = deserialize_bn(serialize_bn(bn_model))
        restored.init_context()
        preds = [TablePredicate("t", "a", PredicateOp.EQ, 3.0)]
        assert restored.selectivity(preds) == pytest.approx(
            bn_model.selectivity(preds)
        )

    def test_roundtrip_preserves_distribution(self, bn_model):
        restored = deserialize_bn(serialize_bn(bn_model))
        assert np.allclose(
            restored.distribution("b", []), bn_model.distribution("b", [])
        )

    def test_wrong_kind_rejected(self, bn_model):
        blob = serialize_rbx(MLP(8, hidden=(4,)))
        with pytest.raises(ModelError):
            deserialize_bn(blob)

    def test_metadata_preserved(self, bn_model):
        restored = deserialize_bn(serialize_bn(bn_model))
        assert restored.table_name == "t"
        assert restored.columns == ("a", "b")
        assert restored.total_rows == bn_model.total_rows


class TestRBXSerialization:
    def test_roundtrip_preserves_forward(self):
        model = MLP(10, hidden=(6, 4), seed=2)
        restored, meta = deserialize_rbx(serialize_rbx(model, meta={"scope": "u"}))
        x = np.random.default_rng(0).normal(size=(4, 10))
        assert np.allclose(model.forward(x), restored.forward(x))
        assert meta["scope"] == "u"

    def test_wrong_kind_rejected(self, bn_model):
        with pytest.raises(ModelError):
            deserialize_rbx(serialize_bn(bn_model))


class TestRegistry:
    def test_timestamps_monotonic(self):
        registry = ModelRegistry()
        first = registry.publish("bn", "t", b"one")
        second = registry.publish("bn", "t", b"two")
        assert second.timestamp > first.timestamp

    def test_latest_returns_newest(self):
        registry = ModelRegistry()
        registry.publish("bn", "t", b"one")
        registry.publish("bn", "t", b"two")
        latest = registry.latest("bn", "t")
        assert latest is not None and latest.blob == b"two"

    def test_latest_missing_is_none(self):
        assert ModelRegistry().latest("bn", "zzz") is None

    def test_keys_sorted(self):
        registry = ModelRegistry()
        registry.publish("rbx", "universal", b"x")
        registry.publish("bn", "a", b"y")
        assert registry.keys() == [("bn", "a"), ("rbx", "universal")]

    def test_directory_backing(self, tmp_path):
        registry = ModelRegistry(directory=tmp_path)
        record = registry.publish("bn", "t", b"payload")
        files = list(tmp_path.glob("*.bcm"))
        assert len(files) == 1
        assert files[0].read_bytes() == b"payload"
        assert record.timestamp == 1

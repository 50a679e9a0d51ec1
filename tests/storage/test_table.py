"""Tests for Table and TableSchema."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage import Column, Table


def _table(rows=100, block_size=32):
    return Table.from_arrays(
        "t",
        {"a": np.arange(rows), "b": np.arange(rows) % 7},
        block_size=block_size,
    )


class TestConstruction:
    def test_rejects_empty_column_list(self):
        with pytest.raises(SchemaError):
            Table("t", [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(SchemaError):
            Table("t", [Column.from_ints("a", [1]), Column.from_ints("b", [1, 2])])

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Table("t", [Column.from_ints("a", [1]), Column.from_ints("a", [2])])

    def test_rejects_bad_block_size(self):
        with pytest.raises(SchemaError):
            Table("t", [Column.from_ints("a", [1])], block_size=0)

    def test_from_arrays_infers_types(self):
        table = Table.from_arrays(
            "t", {"i": np.array([1, 2]), "f": np.array([1.0, 2.0])}
        )
        assert table.schema.spec("i").ctype.value == "int"
        assert table.schema.spec("f").ctype.value == "float"

    def test_from_arrays_rejects_object_dtype(self):
        with pytest.raises(SchemaError):
            Table.from_arrays("t", {"o": np.array(["a", "b"], dtype=object)})


class TestAccess:
    def test_len_and_names(self):
        table = _table()
        assert len(table) == 100
        assert table.column_names() == ("a", "b")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            _table().column("missing")

    def test_schema_lookup(self):
        schema = _table().schema
        assert schema.has_column("a")
        assert not schema.has_column("z")
        with pytest.raises(SchemaError):
            schema.spec("z")


class TestSampling:
    def test_sample_size(self, rng):
        sample = _table().sample(10, rng)
        assert len(sample) == 10

    def test_sample_capped_at_table_size(self, rng):
        sample = _table(rows=5).sample(100, rng)
        assert len(sample) == 5

    def test_sample_rejects_non_positive(self, rng):
        with pytest.raises(ValueError):
            _table().sample(0, rng)

    def test_sample_rows_come_from_table(self, rng):
        sample = _table().sample(20, rng)
        assert set(sample.column("a").values) <= set(range(100))


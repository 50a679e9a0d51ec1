"""Tests for the in-place mutation API: append_rows / delete_where.

The load-bearing invariants:

* zone maps are generation-checked -- a partition mutated after its map
  was built never serves the stale min/max refutation (the pruning bug
  this API was grown around);
* pruning stays correct-by-refutation through arbitrary mutation
  sequences: ``partitioned_scan`` over the mutated table returns exactly
  the rows a fresh load of the same data returns;
* the tail-coalescing policy: small batches merge into the tail
  partition, large ones seal it and open a new one;
* partition indices are stable: deletes shrink partitions in place, and
  a partition deleted down to zero rows keeps its index.
"""

import numpy as np
import pytest

from repro.engine import partitioned_scan
from repro.errors import SchemaError
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.storage import Column, IOCounter, Table


def _table(rows=100, block_size=25, partitions=4):
    return Table.from_arrays(
        "t",
        {"a": np.arange(rows), "b": np.arange(rows) % 7},
        block_size=block_size,
        partitions=partitions,
    )


def _batch(values_a, values_b=None):
    values_a = np.asarray(values_a)
    if values_b is None:
        values_b = np.zeros(len(values_a), dtype=np.int64)
    return {"a": values_a, "b": np.asarray(values_b)}


def _eq(column, value):
    return TablePredicate("t", column, PredicateOp.EQ, value)


def _query(*predicates):
    return CardQuery(tables=("t",), predicates=tuple(predicates), name="q")


def _scan_rows(table, query):
    return partitioned_scan(table, query, ["a"], IOCounter()).row_indices


class TestZoneMapInvalidation:
    def test_stale_refutation_not_served_after_append(self):
        """The regression: an appended row outside the old min/max must not
        leave the tail partition prunable by its stale zone map."""
        table = _table()
        tail = table.num_partitions - 1
        # Prime the cache: 500 is outside [75, 99], the map refutes it.
        assert table.zone_map(tail, "a").refutes(_eq("a", 500.0))
        table.append_rows(_batch([500]))
        assert not table.zone_map(tail, "a").refutes(_eq("a", 500.0))
        assert np.array_equal(_scan_rows(table, _query(_eq("a", 500.0))), [100])

    def test_generation_bumps_on_coalesce_only_for_tail(self):
        table = _table()
        before = [table.partition_generation(i) for i in range(4)]
        table.append_rows(_batch([500]))
        after = [table.partition_generation(i) for i in range(4)]
        assert after[-1] == before[-1] + 1
        assert after[:-1] == before[:-1]

    def test_delete_bumps_only_affected_partitions(self):
        table = _table()
        table.delete_where(_eq("a", 10.0))  # lives in partition 0
        assert table.partition_generation(0) == 1
        assert [table.partition_generation(i) for i in (1, 2, 3)] == [0, 0, 0]
        # Pruning on the shifted ranges stays correct.
        assert _scan_rows(table, _query(_eq("a", 10.0))).size == 0
        assert np.array_equal(_scan_rows(table, _query(_eq("a", 11.0))), [10])

    def test_string_dictionary_rebuild_invalidates_every_partition(self):
        table = Table(
            "t",
            [
                Column.from_strings("s", ["m", "m", "p", "p"]),
                Column.from_ints("a", [0, 1, 2, 3]),
            ],
            block_size=2,
            partitions=2,
        )
        # Predicates over string columns are bound to dictionary codes.
        assert table.column("s").dictionary == ("m", "p")
        assert table.zone_map(0, "s").refutes(_eq("s", 1.0))  # code of "p"
        table.append_rows({"s": np.array(["a"]), "a": np.array([4])})
        # "a" re-sorts the dictionary: every partition's codes were remapped,
        # so the cached map claiming partition 0 holds only code 0 is stale.
        assert table.column("s").dictionary == ("a", "m", "p")
        assert table.partition_generation(0) == 1
        assert not table.zone_map(0, "s").refutes(_eq("s", 1.0))  # now "m"
        assert np.array_equal(_scan_rows(table, _query(_eq("s", 0.0))), [4])


class TestAppendPolicy:
    def test_small_batch_coalesces_into_tail(self):
        table = _table()  # tail holds 25 rows, bound = 4 * 25 = 100
        appended = table.append_rows(_batch(np.arange(200, 210)))
        assert appended == 10
        assert table.num_partitions == 4
        assert table.partition(3).num_rows == 35
        assert len(table) == 110

    def test_large_batch_opens_new_tail_partition(self):
        table = _table()
        table.append_rows(_batch(np.arange(200, 290)))
        assert table.num_partitions == 5
        assert table.partition(4).num_rows == 90
        assert table.partition_generation(4) == 0

    def test_explicit_coalesce_bound(self):
        table = _table()
        table.append_rows(_batch([1, 2]), coalesce_tail_rows=25)
        assert table.num_partitions == 5

    def test_coalesce_bound_is_inclusive(self):
        table = _table()  # tail holds 25 rows
        table.append_rows(_batch(np.arange(200, 275)))  # 25 + 75 == 100
        assert table.num_partitions == 4
        assert table.partition(3).num_rows == 100
        table.append_rows(_batch([300]))  # 101 > 100 seals the tail
        assert table.num_partitions == 5
        assert table.partition(4).num_rows == 1

    def test_new_tail_zone_map_covers_only_the_batch(self):
        table = _table()
        table.append_rows(_batch(np.arange(500, 600)))
        new_tail = table.zone_map(4, "a")
        assert (new_tail.min_value, new_tail.max_value) == (500.0, 599.0)
        old_tail = table.zone_map(3, "a")
        assert (old_tail.min_value, old_tail.max_value) == (75.0, 99.0)
        survivors = _scan_rows(
            table, _query(TablePredicate("t", "a", PredicateOp.GE, 500.0))
        )
        assert np.array_equal(survivors, np.arange(100, 200))

    def test_append_refills_an_emptied_tail(self):
        table = _table()
        table.delete_where(TablePredicate("t", "a", PredicateOp.GE, 75.0))
        assert table.partition(3).num_rows == 0
        table.append_rows(_batch([900, 901]))
        assert table.num_partitions == 4
        assert (table.partition(3).row_start, table.partition(3).row_stop) == (
            75,
            77,
        )
        assert np.array_equal(_scan_rows(table, _query(_eq("a", 901.0))), [76])

    def test_empty_batch_is_a_noop(self):
        table = _table()
        assert table.append_rows(_batch([])) == 0
        assert table.mutation_generation == 0

    def test_mutation_generation_counts_mutations(self):
        table = _table()
        table.append_rows(_batch([1]))
        table.delete_where(_eq("a", 1.0))
        assert table.mutation_generation == 2

    def test_rejects_wrong_column_set(self):
        table = _table()
        with pytest.raises(SchemaError):
            table.append_rows({"a": np.array([1])})
        with pytest.raises(SchemaError):
            table.append_rows({**_batch([1]), "z": np.array([1])})

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(SchemaError):
            _table().append_rows({"a": np.array([1, 2]), "b": np.array([1])})


class TestDelete:
    def test_compacts_and_shifts_bounds(self):
        table = _table()
        deleted = table.delete_where(
            TablePredicate("t", "a", PredicateOp.LT, 10.0)
        )
        assert deleted == 10
        assert len(table) == 90
        assert [p.num_rows for p in table.partitions()] == [15, 25, 25, 25]
        assert np.array_equal(table.column("a").values[:3], [10, 11, 12])

    def test_emptied_partition_stays_in_place_and_refutes(self):
        table = _table()
        table.delete_where(TablePredicate("t", "a", PredicateOp.LT, 25.0))
        assert table.num_partitions == 4
        assert table.partition(0).num_rows == 0
        assert table.zone_map(0, "a").refutes(_eq("a", 30.0))
        assert np.array_equal(_scan_rows(table, _query(_eq("a", 30.0))), [5])

    def test_partition_indices_stay_stable_across_deletes(self):
        table = _table()
        table.delete_where(
            TablePredicate("t", "a", PredicateOp.BETWEEN, (25.0, 49.0))
        )
        assert table.num_partitions == 4
        assert [p.num_rows for p in table.partitions()] == [25, 0, 25, 25]
        # Later partitions keep their index and generation; only their row
        # ranges shift down over the emptied one.
        assert [table.partition_generation(i) for i in range(4)] == [0, 1, 0, 0]
        assert (table.partition(2).row_start, table.partition(2).row_stop) == (
            25,
            50,
        )
        zone = table.zone_map(2, "a")
        assert (zone.min_value, zone.max_value) == (50.0, 74.0)
        assert np.array_equal(_scan_rows(table, _query(_eq("a", 60.0))), [35])

    def test_conjunction_semantics(self):
        table = _table()
        deleted = table.delete_where(
            TablePredicate("t", "a", PredicateOp.LT, 14.0), _eq("b", 0.0)
        )
        # a in [0, 14) with a % 7 == 0: rows 0 and 7.
        assert deleted == 2

    def test_no_match_is_a_noop(self):
        table = _table()
        assert table.delete_where(_eq("a", 1e9)) == 0
        assert table.mutation_generation == 0

    def test_rejects_foreign_table_predicate(self):
        with pytest.raises(SchemaError):
            _table().delete_where(
                TablePredicate("other", "a", PredicateOp.EQ, 1.0)
            )

    def test_rejects_empty_predicate_list(self):
        with pytest.raises(SchemaError):
            _table().delete_where()


class TestFreshLoadEquivalence:
    """After arbitrary mutations, scans must match a fresh load bit for bit."""

    def _mutate(self, table, rng):
        for _ in range(6):
            action = rng.integers(0, 3)
            if action == 0:
                batch = rng.integers(0, 1000, int(rng.integers(1, 40)))
                table.append_rows(
                    _batch(batch, rng.integers(0, 7, batch.size))
                )
            elif action == 1:
                batch = rng.integers(0, 1000, int(rng.integers(100, 160)))
                table.append_rows(
                    _batch(batch, rng.integers(0, 7, batch.size))
                )
            else:
                table.delete_where(
                    TablePredicate(
                        "t", "a", PredicateOp.GE, float(rng.integers(0, 900))
                    ),
                    TablePredicate("t", "b", PredicateOp.EQ, float(rng.integers(0, 7))),
                )

    def test_scan_matches_fresh_load(self):
        rng = np.random.default_rng(7)
        table = _table()
        self._mutate(table, rng)
        fresh = Table.from_arrays(
            "t",
            {name: table.column(name).values.copy() for name in ("a", "b")},
            block_size=table.block_size,
        )
        queries = [
            _query(TablePredicate("t", "a", PredicateOp.BETWEEN, (100.0, 400.0))),
            _query(_eq("b", 3.0)),
            _query(TablePredicate("t", "a", PredicateOp.GT, 950.0), _eq("b", 1.0)),
            _query(_eq("a", -5.0)),
        ]
        for query in queries:
            mutated_rows = _scan_rows(table, query)
            fresh_rows = _scan_rows(fresh, query)
            assert np.array_equal(mutated_rows, fresh_rows)

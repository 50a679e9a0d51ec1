"""Tests for the single-stage and multi-stage readers over one partition."""

import numpy as np
import pytest

from repro.engine import multi_stage_scan, single_stage_scan
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.storage import IOCounter, Table
from repro.workloads.predicates import table_mask


def _make_table(rows=4096, block_size=256, seed=0):
    rng = np.random.default_rng(seed)
    # 'cluster' makes whole blocks filterable: values sorted by block.
    cluster = np.repeat(np.arange(rows // block_size), block_size)
    return Table.from_arrays(
        "t",
        {
            "cluster": cluster,
            "noise": rng.integers(0, 100, rows),
            "payload": rng.integers(0, 1000, rows),
        },
        block_size=block_size,
    )


def _query(*predicates):
    return CardQuery(tables=("t",), predicates=tuple(predicates))


class TestCorrectness:
    @pytest.mark.parametrize("scan", [single_stage_scan, multi_stage_scan])
    def test_matches_reference_mask(self, scan):
        table = _make_table()
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.LE, 3.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        io = IOCounter()
        result = scan(table, query, ["payload"], io, table.partition(0))
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(np.sort(result.row_indices), expected)

    @pytest.mark.parametrize("scan", [single_stage_scan, multi_stage_scan])
    def test_no_predicates_returns_everything(self, scan):
        table = _make_table()
        io = IOCounter()
        query = CardQuery(tables=("t",))
        result = scan(table, query, ["payload"], io, table.partition(0))
        assert result.row_indices.size == len(table)

    @pytest.mark.parametrize("scan", [single_stage_scan, multi_stage_scan])
    def test_or_groups_applied(self, scan):
        table = _make_table()
        query = CardQuery(
            tables=("t",),
            or_groups=(
                (
                    TablePredicate("t", "cluster", PredicateOp.EQ, 0.0),
                    TablePredicate("t", "cluster", PredicateOp.EQ, 15.0),
                ),
            ),
        )
        io = IOCounter()
        result = scan(table, query, [], io, table.partition(0))
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(np.sort(result.row_indices), expected)


class TestPartitionScans:
    @pytest.mark.parametrize("scan", [single_stage_scan, multi_stage_scan])
    def test_partitions_concatenate_to_the_whole_table_rows(self, scan):
        source = _make_table()
        table = Table.from_arrays(
            "t",
            {c: source.column(c).values for c in ("cluster", "noise", "payload")},
            block_size=source.block_size,
            partitions=[1000, 1500, source.num_rows - 2500],
        )
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.LE, 9.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        pieces = []
        for partition in table.partitions():
            result = scan(table, query, ["payload"], IOCounter(), partition)
            inside = (result.row_indices >= partition.row_start) & (
                result.row_indices < partition.row_stop
            )
            assert inside.all()
            pieces.append(result.row_indices)
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(np.concatenate(pieces), expected)


class TestIOBehaviour:
    def test_single_stage_reads_every_block_once(self):
        table = _make_table()
        query = _query(TablePredicate("t", "cluster", PredicateOp.EQ, 0.0))
        io = IOCounter()
        result = single_stage_scan(
            table, query, ["payload"], io, table.partition(0)
        )
        blocks = len(table) // table.block_size
        # cluster + payload, every block each.
        assert result.blocks_read == 2 * blocks
        assert result.random_blocks == 0

    def test_multi_stage_skips_filtered_blocks(self):
        table = _make_table()
        # cluster == 0 lives in exactly one block.
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.EQ, 0.0),
            TablePredicate("t", "noise", PredicateOp.LT, 200.0),
        )
        io = IOCounter()
        result = multi_stage_scan(
            table,
            query,
            ["payload"],
            io,
            table.partition(0),
            column_order=["cluster", "noise"],
        )
        blocks = len(table) // table.block_size
        # stage 1 reads all cluster blocks; stages 2+ touch only the single
        # surviving block for noise and payload.
        assert result.blocks_read == blocks + 2
        assert result.random_blocks == 2

    def test_multi_stage_selective_beats_single_stage(self):
        table = _make_table()
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.EQ, 2.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        io_single, io_multi = IOCounter(), IOCounter()
        single = single_stage_scan(
            table, query, ["payload"], io_single, table.partition(0)
        )
        multi = multi_stage_scan(
            table,
            query,
            ["payload"],
            io_multi,
            table.partition(0),
            column_order=["cluster", "noise"],
        )
        assert multi.blocks_read < single.blocks_read

    def test_multi_stage_nonselective_reads_same_blocks(self):
        table = _make_table()
        query = _query(TablePredicate("t", "noise", PredicateOp.GE, 0.0))
        io_single, io_multi = IOCounter(), IOCounter()
        single = single_stage_scan(
            table, query, ["payload"], io_single, table.partition(0)
        )
        multi = multi_stage_scan(
            table, query, ["payload"], io_multi, table.partition(0)
        )
        # Nothing to skip: same blocks, but multi pays random-read penalties.
        assert multi.blocks_read == single.blocks_read
        assert multi.random_blocks > 0

    def test_column_order_changes_io(self):
        """Reading the selective column first reduces later-stage I/O --
        the decision the optimizer's column ordering makes."""
        table = _make_table()
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.EQ, 1.0),  # selective
            TablePredicate("t", "noise", PredicateOp.LT, 95.0),  # not
        )
        io_good, io_bad = IOCounter(), IOCounter()
        good = multi_stage_scan(
            table, query, [], io_good, table.partition(0),
            column_order=["cluster", "noise"],
        )
        bad = multi_stage_scan(
            table, query, [], io_bad, table.partition(0),
            column_order=["noise", "cluster"],
        )
        assert good.blocks_read < bad.blocks_read
        assert np.array_equal(
            np.sort(good.row_indices), np.sort(bad.row_indices)
        )

    def test_stage_survivors_recorded(self):
        table = _make_table()
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.LE, 1.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        io = IOCounter()
        result = multi_stage_scan(
            table, query, [], io, table.partition(0),
            column_order=["cluster", "noise"],
        )
        assert len(result.stage_survivors) == 2
        assert result.stage_survivors[0] >= result.stage_survivors[1]

    def test_early_exit_when_nothing_survives(self):
        table = _make_table()
        query = _query(
            TablePredicate("t", "cluster", PredicateOp.EQ, 9999.0),
            TablePredicate("t", "noise", PredicateOp.LT, 50.0),
        )
        io = IOCounter()
        result = multi_stage_scan(
            table,
            query,
            ["payload"],
            io,
            table.partition(0),
            column_order=["cluster", "noise"],
        )
        blocks = len(table) // table.block_size
        assert result.row_indices.size == 0
        assert result.blocks_read == blocks  # only the first stage


class TestOrGroupIO:
    def test_or_columns_charged_in_multi_stage(self):
        """OR-group columns read in the final stage are charged as random
        block I/O (previously they were read for free)."""
        table = _make_table()
        query = CardQuery(
            tables=("t",),
            predicates=(TablePredicate("t", "cluster", PredicateOp.EQ, 1.0),),
            or_groups=(
                (
                    TablePredicate("t", "noise", PredicateOp.LT, 10.0),
                    TablePredicate("t", "noise", PredicateOp.GT, 90.0),
                ),
            ),
        )
        io = IOCounter()
        result = multi_stage_scan(
            table, query, [], io, table.partition(0), column_order=["cluster"]
        )
        # stage 1 reads all cluster blocks; the OR column is then read for
        # the single surviving block.
        blocks = len(table) // table.block_size
        assert result.blocks_read == blocks + 1
        assert result.random_blocks >= 1
        expected = np.flatnonzero(table_mask(table, query))
        assert np.array_equal(np.sort(result.row_indices), expected)

    def test_or_column_not_double_charged_when_also_filter(self):
        """A column appearing both in AND predicates and an OR group is read
        once during its filter stage, not again for the OR evaluation."""
        table = _make_table()
        query = CardQuery(
            tables=("t",),
            predicates=(TablePredicate("t", "noise", PredicateOp.LT, 95.0),),
            or_groups=(
                (
                    TablePredicate("t", "noise", PredicateOp.LT, 10.0),
                    TablePredicate("t", "noise", PredicateOp.GT, 50.0),
                ),
            ),
        )
        io = IOCounter()
        result = multi_stage_scan(
            table, query, [], io, table.partition(0), column_order=["noise"]
        )
        blocks = len(table) // table.block_size
        assert result.blocks_read == blocks  # one pass over 'noise' only

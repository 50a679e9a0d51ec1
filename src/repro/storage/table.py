"""Tables: ordered collections of equal-length columns plus schema metadata.

A table's rows are organized two ways: into fixed-size *blocks* (the I/O
granule the readers charge) and into an ordered list of *partitions*
(contiguous row ranges, each with its own partition-local block index and
per-column zone maps).  The default is a single partition covering the whole
table, which preserves the pre-partitioning behaviour of every reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.column import Column
from repro.storage.partitions import Partition, ZoneMap
from repro.storage.types import ColumnType

#: Default rows per storage block; ByteHouse-like engines use granules of
#: this order.  Small enough that multi-stage reading can actually skip
#: blocks on the synthetic datasets.
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class ColumnSpec:
    """Schema entry for one column."""

    name: str
    ctype: ColumnType


@dataclass(frozen=True)
class TableSchema:
    """Immutable table schema: a name and an ordered list of column specs."""

    name: str
    columns: tuple[ColumnSpec, ...]

    def column_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.columns)

    def spec(self, column: str) -> ColumnSpec:
        for item in self.columns:
            if item.name == column:
                return item
        raise SchemaError(f"table {self.name!r} has no column {column!r}")

    def has_column(self, column: str) -> bool:
        return any(item.name == column for item in self.columns)


class Table:
    """A named table of columns, all of the same length.

    Rows are conceptually split into blocks of ``block_size`` rows; the block
    structure is what the readers in :mod:`repro.engine.readers` iterate and
    what I/O accounting counts.
    """

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        block_size: int = DEFAULT_BLOCK_SIZE,
        partitions: int | Sequence[int] | None = None,
    ):
        """``partitions`` is either a partition count (rows split into that
        many near-equal contiguous ranges) or an explicit sequence of
        per-partition row counts summing to the table size.
        """
        column_list = list(columns)
        if not column_list:
            raise SchemaError(f"table {name!r} must have at least one column")
        lengths = {len(col) for col in column_list}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {name!r} columns have inconsistent lengths: {sorted(lengths)}"
            )
        names = [col.name for col in column_list]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        if block_size <= 0:
            raise SchemaError(f"block_size must be positive, got {block_size}")
        self.name = name
        self.block_size = block_size
        self._columns: dict[str, Column] = {col.name: col for col in column_list}
        self._order: tuple[str, ...] = tuple(names)
        self.num_rows = lengths.pop()
        self._partition_bounds = self._resolve_partition_bounds(partitions)
        #: per-partition generation counters; a mutation that touches a
        #: partition's rows bumps its generation, invalidating any cached
        #: zone maps built against the previous contents
        self._partition_gens: list[int] = [0] * len(self._partition_bounds)
        #: table-level mutation counter (appends + deletes), exposed so the
        #: engine and tests can detect that a table changed under them
        self.mutation_generation = 0
        #: zone maps, cached per (partition index, column) together with the
        #: partition generation they were built at; built eagerly by
        #: :meth:`build_zone_maps` when the catalog loads a partitioned
        #: table, lazily on first pruning attempt otherwise.  A stale entry
        #: (generation mismatch) is rebuilt lazily, never served.
        self._zone_maps: dict[tuple[int, str], tuple[int, ZoneMap]] = {}

    def _resolve_partition_bounds(
        self, partitions: int | Sequence[int] | None
    ) -> tuple[tuple[int, int], ...]:
        if partitions is None:
            return ((0, self.num_rows),)
        if isinstance(partitions, int):
            if partitions <= 0:
                raise SchemaError(
                    f"partition count must be positive, got {partitions}"
                )
            count = min(partitions, max(1, self.num_rows))
            edges = np.linspace(0, self.num_rows, count + 1).astype(np.int64)
            return tuple(
                (int(edges[i]), int(edges[i + 1])) for i in range(count)
            )
        sizes = [int(size) for size in partitions]
        if not sizes:
            raise SchemaError("partition size list must not be empty")
        if any(size < 0 for size in sizes):
            raise SchemaError(f"partition sizes must be non-negative: {sizes}")
        if sum(sizes) != self.num_rows:
            raise SchemaError(
                f"partition sizes {sizes} do not sum to table rows {self.num_rows}"
            )
        bounds = []
        start = 0
        for size in sizes:
            bounds.append((start, start + size))
            start += size
        return tuple(bounds)

    # ------------------------------------------------------------------
    # Schema / access
    # ------------------------------------------------------------------
    @property
    def schema(self) -> TableSchema:
        return TableSchema(
            self.name,
            tuple(
                ColumnSpec(name, self._columns[name].ctype) for name in self._order
            ),
        )

    def column_names(self) -> tuple[str, ...]:
        return self._order

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"cols={len(self._order)}, partitions={self.num_partitions})"
        )

    @property
    def nbytes(self) -> int:
        return sum(col.nbytes for col in self._columns.values())

    # ------------------------------------------------------------------
    # Partitions and zone maps
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self._partition_bounds)

    def partition(self, index: int) -> Partition:
        if index < 0 or index >= len(self._partition_bounds):
            raise IndexError(
                f"partition {index} out of range for table {self.name!r} "
                f"({self.num_partitions} partitions)"
            )
        start, stop = self._partition_bounds[index]
        return Partition(
            table_name=self.name,
            index=index,
            row_start=start,
            row_stop=stop,
            block_size=self.block_size,
        )

    def partitions(self) -> tuple[Partition, ...]:
        """All partitions, in row order."""
        return tuple(self.partition(i) for i in range(self.num_partitions))

    def partition_generation(self, index: int) -> int:
        """Mutation generation of one partition (bumped by append/delete)."""
        if index < 0 or index >= len(self._partition_gens):
            raise IndexError(
                f"partition {index} out of range for table {self.name!r}"
            )
        return self._partition_gens[index]

    def zone_map(self, partition_index: int, column: str) -> ZoneMap:
        """The (cached) zone map of one column of one partition.

        The cache is generation-checked: a partition mutated since the map
        was built never serves its stale min/max refutation -- the map is
        rebuilt from the current rows instead.
        """
        part = self.partition(partition_index)
        key = (partition_index, column)
        generation = self._partition_gens[partition_index]
        cached = self._zone_maps.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        values = self.column(column).values[part.row_start : part.row_stop]
        zone_map = ZoneMap.from_values(values)
        self._zone_maps[key] = (generation, zone_map)
        return zone_map

    def build_zone_maps(self) -> None:
        """Eagerly build every partition's zone maps (catalog load time)."""
        for index in range(self.num_partitions):
            for column in self._order:
                self.zone_map(index, column)

    # ------------------------------------------------------------------
    # Construction and sampling
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        name: str,
        arrays: Mapping[str, np.ndarray],
        block_size: int = DEFAULT_BLOCK_SIZE,
        partitions: int | Sequence[int] | None = None,
    ) -> "Table":
        """Build a table of INT/FLOAT columns straight from numpy arrays."""
        columns = []
        for col_name, arr in arrays.items():
            arr = np.asarray(arr)
            if np.issubdtype(arr.dtype, np.floating):
                columns.append(Column(col_name, ColumnType.FLOAT, arr.astype(np.float64)))
            elif np.issubdtype(arr.dtype, np.integer):
                columns.append(Column(col_name, ColumnType.INT, arr.astype(np.int64)))
            else:
                raise SchemaError(
                    f"from_arrays only accepts numeric arrays; column "
                    f"{col_name!r} has dtype {arr.dtype}"
                )
        return cls(name, columns, block_size=block_size, partitions=partitions)

    def take(self, indices: np.ndarray) -> "Table":
        """Row-gather into a new single-partition table.

        Gathered tables lose the partition layout: arbitrary row subsets no
        longer respect the contiguous partition ranges, so the result
        collapses to one partition (zone maps rebuild lazily).
        """
        return Table(
            self.name,
            [self._columns[name].take(indices) for name in self._order],
            block_size=self.block_size,
        )

    def sample(self, rows: int, rng: np.random.Generator) -> "Table":
        """Uniform row sample without replacement (capped at the table size).

        Used by the ModelForge service, the sampling estimator, and RBX's
        sample-profile featurization.
        """
        if rows <= 0:
            raise ValueError(f"sample size must be positive, got {rows}")
        take = min(rows, self.num_rows)
        indices = rng.choice(self.num_rows, size=take, replace=False)
        indices.sort()
        return self.take(indices)

    # ------------------------------------------------------------------
    # In-place mutation (streaming ingestion)
    # ------------------------------------------------------------------
    #: default tail-coalescing bound for :meth:`append_rows`, in units of
    #: ``block_size`` rows: batches are merged into the tail partition until
    #: it reaches this many blocks, after which a new tail partition opens
    DEFAULT_COALESCE_BLOCKS = 4

    def append_rows(
        self,
        arrays: Mapping[str, "np.ndarray | Sequence[object]"],
        coalesce_tail_rows: int | None = None,
    ) -> int:
        """Append a batch of rows at the end of the table, in place.

        ``arrays`` must provide every column of the table, all of equal
        length.  Small batches are coalesced into the existing tail
        partition while it stays under ``coalesce_tail_rows`` rows
        (default ``DEFAULT_COALESCE_BLOCKS * block_size``); larger growth
        opens a new tail partition, mirroring how warehouses seal full
        parts.  Either way the mutated partitions' generations are bumped,
        so stale zone maps are invalidated rather than served.

        Returns the number of rows appended.
        """
        missing = [name for name in self._order if name not in arrays]
        extra = [name for name in arrays if name not in self._columns]
        if missing or extra:
            raise SchemaError(
                f"append_rows to table {self.name!r} must supply exactly its "
                f"columns; missing={missing}, unknown={extra}"
            )
        lengths = {name: len(arrays[name]) for name in self._order}
        if len(set(lengths.values())) != 1:
            raise SchemaError(
                f"append_rows batches have inconsistent lengths: {lengths}"
            )
        batch = next(iter(lengths.values()))
        if batch == 0:
            return 0
        appended = {
            name: self._columns[name].append(arrays[name]) for name in self._order
        }
        # A string-dictionary rebuild remaps the codes of *every* row of that
        # column, so all partitions' cached maps for the table go stale.
        remapped = any(
            appended[name].dictionary != self._columns[name].dictionary
            for name in self._order
        )

        if coalesce_tail_rows is None:
            coalesce_tail_rows = self.DEFAULT_COALESCE_BLOCKS * self.block_size
        bounds = list(self._partition_bounds)
        tail_start, tail_stop = bounds[-1]
        tail_rows = tail_stop - tail_start
        if tail_rows + batch <= coalesce_tail_rows:
            bounds[-1] = (tail_start, tail_stop + batch)
            self._partition_gens[-1] += 1
        else:
            bounds.append((self.num_rows, self.num_rows + batch))
            self._partition_gens.append(0)
        if remapped:
            self._partition_gens = [gen + 1 for gen in self._partition_gens]
        self._partition_bounds = tuple(bounds)
        self._columns = appended
        self.num_rows += batch
        self.mutation_generation += 1
        return batch

    def delete_where(self, *predicates) -> int:
        """Delete the rows matching the conjunction of ``predicates``.

        Deletion is tombstone-compacting: each affected partition keeps its
        surviving rows in order and shrinks, subsequent partitions' row
        ranges shift down, and every partition that lost rows has its
        generation bumped (stale zone maps rebuild lazily).  Partitions
        deleted down to zero rows stay in place as empty ranges, so partition
        indices (and the generations and zone maps keyed by them) stay
        stable; an empty partition refutes every predicate.

        Returns the number of rows deleted.
        """
        from repro.workloads.predicates import predicate_mask

        if not predicates:
            raise SchemaError("delete_where requires at least one predicate")
        doomed = np.ones(self.num_rows, dtype=bool)
        for pred in predicates:
            if pred.table != self.name:
                raise SchemaError(
                    f"delete_where on table {self.name!r} got a predicate on "
                    f"{pred.table!r}"
                )
            doomed &= predicate_mask(self.column(pred.column).values, pred)
        deleted = int(doomed.sum())
        if deleted == 0:
            return 0
        keep = ~doomed
        bounds = []
        start = 0
        for index, (old_start, old_stop) in enumerate(self._partition_bounds):
            kept = int(keep[old_start:old_stop].sum())
            bounds.append((start, start + kept))
            start += kept
            if kept != old_stop - old_start:
                self._partition_gens[index] += 1
        survivors = np.flatnonzero(keep)
        self._columns = {
            name: self._columns[name].take(survivors) for name in self._order
        }
        self._partition_bounds = tuple(bounds)
        self.num_rows -= deleted
        self.mutation_generation += 1
        return deleted

"""Columnar storage substrate (the ByteHouse storage layer, in miniature).

Tables are collections of typed, numpy-backed columns split into fixed-size
blocks.  Reads are accounted at block granularity through :class:`IOCounter`,
which is what Figure 6(a) of the paper measures ("read I/Os").
"""

from repro.storage.types import ColumnType, MLType, ml_type_for
from repro.storage.column import Column
from repro.storage.partitions import Partition, ZoneMap
from repro.storage.table import Table, TableSchema, ColumnSpec
from repro.storage.io_stats import IOCounter
from repro.storage.blocks import BlockReader, block_count, block_slices
from repro.storage.catalog import Catalog, JoinSchema, JoinEdge

__all__ = [
    "ColumnType",
    "MLType",
    "ml_type_for",
    "Column",
    "Partition",
    "ZoneMap",
    "Table",
    "TableSchema",
    "ColumnSpec",
    "IOCounter",
    "BlockReader",
    "block_count",
    "block_slices",
    "Catalog",
    "JoinSchema",
    "JoinEdge",
]

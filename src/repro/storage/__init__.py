"""Columnar storage substrate (the ByteHouse storage layer, in miniature).

Tables are collections of typed, numpy-backed columns split into fixed-size
blocks.  Reads are accounted at block granularity through :class:`IOCounter`,
which is what Figure 6(a) of the paper measures ("read I/Os").
"""

from repro.storage.types import ColumnType, MLType, ml_type_for
from repro.storage.column import Column
from repro.storage.partitions import (
    Partition,
    ZoneMap,
    partition_refuted,
    prune_partitions,
)
from repro.storage.table import Table, TableSchema, ColumnSpec
from repro.storage.io_stats import IOCounter
from repro.storage.blocks import read_block
from repro.storage.catalog import Catalog, JoinSchema, JoinEdge

__all__ = [
    "ColumnType",
    "MLType",
    "ml_type_for",
    "Column",
    "Partition",
    "ZoneMap",
    "partition_refuted",
    "prune_partitions",
    "Table",
    "TableSchema",
    "ColumnSpec",
    "IOCounter",
    "read_block",
    "Catalog",
    "JoinSchema",
    "JoinEdge",
]

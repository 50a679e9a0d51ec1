"""Block reads of one partition's columns, with I/O accounting.

The engine never reads a column wholesale: it reads *blocks* (runs of
``table.block_size`` rows) and charges each block to an :class:`IOCounter`.
Multi-stage readers exploit this by skipping blocks whose rows were already
filtered out by earlier, more selective columns.

Every read is addressed by a :class:`~repro.storage.partitions.Partition`
and a partition-local block index, whose row bounds come from
:meth:`Partition.block_bounds`; a read never crosses its partition's row
range.  A single-partition table's one partition covers the whole table.
"""

from __future__ import annotations

import numpy as np

from repro.storage.io_stats import IOCounter
from repro.storage.partitions import Partition
from repro.storage.table import Table


def read_block(
    table: Table, partition: Partition, column: str, block: int, io: IOCounter
) -> np.ndarray:
    """Read one partition-local block of one column, charging one block I/O.

    Bytes charged are the slice's actual dtype bytes; a string column's
    dictionary is charged separately, once per (table, column) per
    counter, instead of being smeared into every block read.  A block
    outside the partition raises :class:`IndexError`.
    """
    col = table.column(column)
    start, stop = partition.block_bounds(block)
    values = col.values[start:stop]
    if col.dictionary is not None:
        dict_nbytes = col.nbytes - int(col.values.nbytes)
        io.record_dictionary(table.name, column, dict_nbytes)
    io.record_block(table.name, column, rows=stop - start, nbytes=int(values.nbytes))
    return values

"""Read-I/O accounting.

ByteHouse charges I/O per column block read from the distributed file system.
:class:`IOCounter` is the in-process equivalent: readers report every block
they touch, and Figure 6(a)'s "Reading I/Os" is the resulting
:attr:`blocks_read` total.

A string column's dictionary is loaded **once per column**, not once per
block: :meth:`IOCounter.record_dictionary` charges it exactly once per
(table, column) pair per counter, so a scan over many partitions charges it
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOCounter:
    """Mutable tally of read I/O performed by scans."""

    blocks_read: int = 0
    rows_read: int = 0
    bytes_read: int = 0
    #: per-(table, column) block counts, for drill-down in benchmarks
    per_column: dict[tuple[str, str], int] = field(default_factory=dict)
    #: dictionary bytes charged so far, per (table, column) -- each string
    #: column's dictionary is charged exactly once per counter
    dict_charges: dict[tuple[str, str], int] = field(default_factory=dict)

    def record_block(
        self, table: str, column: str, rows: int, nbytes: int
    ) -> None:
        """Record one column block read."""
        self.blocks_read += 1
        self.rows_read += rows
        self.bytes_read += nbytes
        key = (table, column)
        self.per_column[key] = self.per_column.get(key, 0) + 1

    def record_dictionary(self, table: str, column: str, nbytes: int) -> bool:
        """Charge a string column's dictionary once; later calls are no-ops.

        Returns True when the charge was applied (first sighting).
        """
        key = (table, column)
        if key in self.dict_charges:
            return False
        self.dict_charges[key] = nbytes
        self.bytes_read += nbytes
        return True

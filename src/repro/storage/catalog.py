"""The catalog: registered tables plus the collected join schema.

ByteHouse customers do not declare PK-FK relationships, so the paper's Model
Preprocessor *collects* join patterns from the analyzer instead.  The catalog
stores the result as a :class:`JoinSchema` -- an undirected multigraph of
joinable column pairs -- which both FactorJoin training and the optimizer's
join-order enumeration consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.storage.table import Table
from repro.utils.lru import GenerationLRU

#: entries of each catalog's bound-query memo (:func:`repro.sql.bind_sql`)
BOUND_QUERY_ENTRIES = 256

#: never-reused registration tokens: one per table object a catalog loads
_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class JoinEdge:
    """One joinable column pair: ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def normalized(self) -> "JoinEdge":
        """Canonical orientation (tables in lexicographic order)."""
        if (self.left_table, self.left_column) <= (self.right_table, self.right_column):
            return self
        return JoinEdge(
            self.right_table, self.right_column, self.left_table, self.left_column
        )

    def touches(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def other(self, table: str) -> tuple[str, str]:
        """The (table, column) on the opposite side of ``table``."""
        if table == self.left_table:
            return (self.right_table, self.right_column)
        if table == self.right_table:
            return (self.left_table, self.left_column)
        raise SchemaError(f"join edge {self} does not touch table {table!r}")


class JoinSchema:
    """The set of join edges known for a database."""

    def __init__(self, edges: Iterable[JoinEdge] = ()):
        self._edges: set[JoinEdge] = {edge.normalized() for edge in edges}

    def add(self, edge: JoinEdge) -> None:
        self._edges.add(edge.normalized())

    def __iter__(self) -> Iterator[JoinEdge]:
        return iter(sorted(self._edges, key=lambda e: (e.left_table, e.left_column,
                                                       e.right_table, e.right_column)))

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: JoinEdge) -> bool:
        return edge.normalized() in self._edges

    def edges_for(self, table: str) -> list[JoinEdge]:
        return [edge for edge in self if edge.touches(table)]

    def join_keys_of(self, table: str) -> list[str]:
        """Columns of ``table`` that participate in any join edge."""
        keys: list[str] = []
        for edge in self:
            if edge.left_table == table and edge.left_column not in keys:
                keys.append(edge.left_column)
            if edge.right_table == table and edge.right_column not in keys:
                keys.append(edge.right_column)
        return keys


class Catalog:
    """Registered tables and their join schema.

    The catalog also owns the memo of SQL texts bound against it
    (:attr:`bound_queries`, filled by :func:`repro.sql.bind_sql`).  A memo
    entry is served only while every table it bound keeps the
    :meth:`table_state` it was bound at: a :meth:`replace` gives the name a
    new token, and an append or a delete moves the table's
    ``mutation_generation``.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._tokens: dict[str, int] = {}
        self.join_schema = JoinSchema()
        self.bound_queries = GenerationLRU(BOUND_QUERY_ENTRIES)

    def __getstate__(self) -> dict:
        # The memo holds a lock and tokens are per process: a copy starts
        # with an empty memo and tokens of its own.
        state = dict(self.__dict__)
        del state["bound_queries"], state["_tokens"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tokens = {name: next(_TOKENS) for name in self._tables}
        self.bound_queries = GenerationLRU(BOUND_QUERY_ENTRIES)

    def register(self, table: Table) -> None:
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} is already registered")
        self.replace(table)

    def replace(self, table: Table) -> None:
        """Replace a table's contents (used by scaling experiments)."""
        self._tables[table.name] = table
        # After the table: a bind that still reads the old token is
        # stored under it, and so is bound again on its next call.
        self._tokens[table.name] = next(_TOKENS)
        self._load_partition_stats(table)

    def table_state(self, name: str) -> tuple[int, int] | None:
        """``(token, mutation_generation)`` of table ``name``; None if unknown."""
        table = self._tables.get(name)
        if table is None:
            return None
        return (self._tokens[name], table.mutation_generation)

    @staticmethod
    def _load_partition_stats(table: Table) -> None:
        """Build zone maps at load time for partitioned tables.

        Single-partition tables defer to lazy per-column construction: their
        only pruning opportunity is a predicate refuting the whole table, so
        paying an eager full-column pass for every registered table (sample
        tables, scaling copies, ...) would be wasted work.
        """
        if table.num_partitions > 1:
            table.build_zone_maps()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def add_join_edge(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> None:
        """Register a joinable column pair, validating both sides exist."""
        for tbl, col in ((left_table, left_column), (right_table, right_column)):
            if not self.table(tbl).has_column(col):
                raise SchemaError(f"table {tbl!r} has no column {col!r}")
        self.join_schema.add(JoinEdge(left_table, left_column, right_table, right_column))

    def total_rows(self) -> int:
        return sum(len(tbl) for tbl in self._tables.values())

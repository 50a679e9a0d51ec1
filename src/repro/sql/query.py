"""The semantic query model shared by estimators and the execution engine.

A :class:`CardQuery` is the post-binding normal form of the query class the
paper evaluates: inner equi-joins over base tables, conjunctions of
single-column predicates (plus optional OR-groups, which ByteCard rewrites
through the inclusion-exclusion principle), an aggregate, and group-by keys.
Workload generators produce :class:`CardQuery` objects directly; the binder
produces them from parsed SQL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.errors import SchemaError


class PredicateOp(enum.Enum):
    """Predicate operators supported on a single column."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN = "in"
    BETWEEN = "between"


@dataclass(frozen=True)
class TablePredicate:
    """A predicate on one column of one base table, in encoded numeric form.

    ``value`` is a single float for comparison ops, a tuple of floats for
    ``IN``, and a ``(low, high)`` pair for ``BETWEEN`` (inclusive).
    """

    table: str
    column: str
    op: PredicateOp
    value: float | tuple[float, ...]

    def __post_init__(self) -> None:
        if self.op is PredicateOp.BETWEEN:
            if not (isinstance(self.value, tuple) and len(self.value) == 2):
                raise SchemaError("BETWEEN predicate requires a (low, high) pair")
            low, high = self.value
            if low > high:
                raise SchemaError(f"BETWEEN bounds reversed: {low} > {high}")
        elif self.op is PredicateOp.IN:
            if not isinstance(self.value, tuple) or not self.value:
                raise SchemaError("IN predicate requires a non-empty value tuple")
        elif isinstance(self.value, tuple):
            raise SchemaError(f"{self.op.value} predicate takes a scalar value")

    def __str__(self) -> str:
        if self.op is PredicateOp.BETWEEN:
            low, high = self.value  # type: ignore[misc]
            return f"{self.table}.{self.column} BETWEEN {low} AND {high}"
        if self.op is PredicateOp.IN:
            inner = ", ".join(str(v) for v in self.value)  # type: ignore[union-attr]
            return f"{self.table}.{self.column} IN ({inner})"
        return f"{self.table}.{self.column} {self.op.value} {self.value}"


@dataclass(frozen=True)
class JoinCondition:
    """``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def normalized(self) -> "JoinCondition":
        if (self.left_table, self.left_column) <= (self.right_table, self.right_column):
            return self
        return JoinCondition(
            self.right_table, self.right_column, self.left_table, self.left_column
        )

    def tables(self) -> tuple[str, str]:
        return (self.left_table, self.right_table)

    def side_for(self, table: str) -> str:
        """The join column on ``table``'s side."""
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise SchemaError(f"join {self} does not touch table {table!r}")

    def __str__(self) -> str:
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )


class AggKind(enum.Enum):
    COUNT = "count"
    COUNT_DISTINCT = "count_distinct"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggSpec:
    """The aggregate of the query: kind plus (table, column) target if any."""

    kind: AggKind
    table: str | None = None
    column: str | None = None

    def __post_init__(self) -> None:
        needs_column = self.kind is not AggKind.COUNT
        if needs_column and (self.table is None or self.column is None):
            raise SchemaError(f"{self.kind.value} aggregate requires a target column")

    def __str__(self) -> str:
        if self.kind is AggKind.COUNT:
            return "COUNT(*)"
        target = f"{self.table}.{self.column}"
        if self.kind is AggKind.COUNT_DISTINCT:
            return f"COUNT(DISTINCT {target})"
        return f"{self.kind.value.upper()}({target})"


@dataclass(frozen=True)
class CardQuery:
    """A bound query in estimation normal form.

    Attributes
    ----------
    tables:
        The base tables referenced (each at most once, as in JOB-light and
        STATS-CEB).
    joins:
        Inner equi-join conditions; the induced join graph must be connected.
    predicates:
        AND-ed single-column predicates.
    or_groups:
        Each group is a disjunction of predicates, AND-ed with everything
        else.  ByteCard converts these through inclusion-exclusion before
        estimating.
    group_by:
        ``(table, column)`` pairs of the GROUP BY clause.
    agg:
        The aggregate computed by the query.
    """

    tables: tuple[str, ...]
    joins: tuple[JoinCondition, ...] = ()
    predicates: tuple[TablePredicate, ...] = ()
    or_groups: tuple[tuple[TablePredicate, ...], ...] = ()
    group_by: tuple[tuple[str, str], ...] = ()
    agg: AggSpec = field(default_factory=lambda: AggSpec(AggKind.COUNT))
    name: str = ""

    def __post_init__(self) -> None:
        if not self.tables:
            raise SchemaError("a query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise SchemaError("tables must be distinct (no self-joins supported)")
        known = set(self.tables)
        for join in self.joins:
            for tbl in join.tables():
                if tbl not in known:
                    raise SchemaError(f"join references unknown table {tbl!r}")
        for pred in self.all_predicates():
            if pred.table not in known:
                raise SchemaError(f"predicate references unknown table {pred.table!r}")
        for tbl, _col in self.group_by:
            if tbl not in known:
                raise SchemaError(f"group-by references unknown table {tbl!r}")
        if len(self.tables) > 1 and not self._is_connected():
            raise SchemaError("join graph is not connected (cross joins unsupported)")

    def __hash__(self) -> int:
        # Hashed once per object: a bound query keys the plan memo, and a
        # repeated text binds to the same object.  The cached value stays
        # out of pickles (see __getstate__): ``str`` hashes are per process.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (
                    self.tables,
                    self.joins,
                    self.predicates,
                    self.or_groups,
                    self.group_by,
                    self.agg,
                    self.name,
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_hash" in state:
            state = dict(state)
            del state["_hash"]
        return state

    def _is_connected(self) -> bool:
        adjacency: dict[str, set[str]] = {t: set() for t in self.tables}
        for join in self.joins:
            a, b = join.tables()
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {self.tables[0]}
        frontier = [self.tables[0]]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.tables)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def all_predicates(self) -> list[TablePredicate]:
        """Every predicate mentioned anywhere (conjuncts and OR-group members)."""
        preds = list(self.predicates)
        for group in self.or_groups:
            preds.extend(group)
        return preds

    def predicates_on(self, table: str) -> list[TablePredicate]:
        """AND-ed predicates restricted to one table."""
        return [p for p in self.predicates if p.table == table]

    def joins_touching(self, table: str) -> list[JoinCondition]:
        return [j for j in self.joins if table in j.tables()]

    def single_table_subquery(self, table: str) -> "CardQuery":
        """The COUNT subquery of one table with its local AND predicates."""
        return CardQuery(
            tables=(table,),
            predicates=tuple(self.predicates_on(table)),
            agg=AggSpec(AggKind.COUNT),
            name=f"{self.name}:{table}" if self.name else table,
        )

    def with_predicates(self, predicates: Iterable[TablePredicate]) -> "CardQuery":
        return replace(self, predicates=tuple(predicates))

    def num_joined_tables(self) -> int:
        return len(self.tables)

    def is_single_table(self) -> bool:
        return len(self.tables) == 1

    def __str__(self) -> str:
        return self.to_sql()

    def to_sql(self) -> str:
        """Render back to SQL (round-trips through the parser and binder)."""
        select = str(self.agg)
        if self.group_by:
            keys = ", ".join(f"{t}.{c}" for t, c in self.group_by)
            select = f"{keys}, {select}"
        parts = [f"SELECT {select} FROM {self.tables[0]}"]
        joined = {self.tables[0]}
        remaining = list(self.joins)
        # Emit joins in an order where each new table connects to the prefix.
        while remaining:
            emitted = False
            for join in list(remaining):
                a, b = join.tables()
                new = b if a in joined else a if b in joined else None
                if new is not None and new not in joined:
                    parts.append(f"JOIN {new} ON {join}")
                    joined.add(new)
                    remaining.remove(join)
                    emitted = True
                elif a in joined and b in joined:
                    # Redundant cycle edge: fold into WHERE via predicates later.
                    remaining.remove(join)
                    emitted = True
            if not emitted:
                raise SchemaError("join graph could not be linearized")
        clauses = [str(p) for p in self.predicates]
        for group in self.or_groups:
            clauses.append("(" + " OR ".join(str(p) for p in group) + ")")
        if clauses:
            parts.append("WHERE " + " AND ".join(clauses))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(f"{t}.{c}" for t, c in self.group_by))
        return " ".join(parts)

"""Binder: resolve a parsed AST against a catalog into a :class:`CardQuery`.

Binding performs name resolution (aliases, unqualified columns), literal
encoding (string literals become dictionary codes), and normalization of the
WHERE tree into the estimation normal form: join conditions, AND-ed
single-column predicates, and OR-groups of single-column predicates.
"""

from __future__ import annotations

from repro.errors import BindError
from repro.sql import ast, parser
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.storage.catalog import Catalog

_COMPARISON_OPS = {
    "=": PredicateOp.EQ,
    "<>": PredicateOp.NE,
    "<": PredicateOp.LT,
    "<=": PredicateOp.LE,
    ">": PredicateOp.GT,
    ">=": PredicateOp.GE,
}

_NEGATED = {
    PredicateOp.EQ: PredicateOp.NE,
    PredicateOp.NE: PredicateOp.EQ,
    PredicateOp.LT: PredicateOp.GE,
    PredicateOp.LE: PredicateOp.GT,
    PredicateOp.GT: PredicateOp.LE,
    PredicateOp.GE: PredicateOp.LT,
}

_FLIPPED = {
    PredicateOp.LT: PredicateOp.GT,
    PredicateOp.LE: PredicateOp.GE,
    PredicateOp.GT: PredicateOp.LT,
    PredicateOp.GE: PredicateOp.LE,
    PredicateOp.EQ: PredicateOp.EQ,
    PredicateOp.NE: PredicateOp.NE,
}

_AGG_KINDS = {
    "COUNT": AggKind.COUNT,
    "SUM": AggKind.SUM,
    "AVG": AggKind.AVG,
    "MIN": AggKind.MIN,
    "MAX": AggKind.MAX,
}


class Binder:
    """Binds ASTs produced by :func:`repro.sql.parse_sql` against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------
    def bind(self, statement: ast.SelectStatement, name: str = "") -> CardQuery:
        alias_map = self._bind_tables(statement)
        joins: list[JoinCondition] = []
        predicates: list[TablePredicate] = []
        or_groups: list[tuple[TablePredicate, ...]] = []

        for join_clause in statement.joins:
            self._bind_condition(
                join_clause.condition, alias_map, joins, predicates, or_groups
            )
        if statement.where is not None:
            self._bind_condition(
                statement.where, alias_map, joins, predicates, or_groups
            )

        agg = self._bind_select(statement.select, alias_map)
        group_by = tuple(
            self._resolve_column(col, alias_map) for col in statement.group_by
        )
        return CardQuery(
            tables=tuple(dict.fromkeys(alias_map.values())),
            joins=tuple(joins),
            predicates=tuple(predicates),
            or_groups=tuple(or_groups),
            group_by=group_by,
            agg=agg,
            name=name,
        )

    # ------------------------------------------------------------------
    def _bind_tables(self, statement: ast.SelectStatement) -> dict[str, str]:
        """Map binding names (alias or table name) to real table names."""
        alias_map: dict[str, str] = {}
        refs = list(statement.from_tables) + [j.table for j in statement.joins]
        for ref in refs:
            if not self.catalog.has_table(ref.table):
                raise BindError(f"unknown table {ref.table!r}")
            binding = ref.binding_name
            if binding in alias_map:
                raise BindError(f"duplicate table binding {binding!r}")
            alias_map[binding] = ref.table
        return alias_map

    def _resolve_column(
        self, col: ast.ColumnRef, alias_map: dict[str, str]
    ) -> tuple[str, str]:
        """Resolve a column reference to a real ``(table, column)`` pair."""
        if col.qualifier is not None:
            if col.qualifier not in alias_map:
                raise BindError(f"unknown table qualifier {col.qualifier!r}")
            table = alias_map[col.qualifier]
            if not self.catalog.table(table).has_column(col.name):
                raise BindError(f"table {table!r} has no column {col.name!r}")
            return (table, col.name)
        owners = [
            table
            for table in dict.fromkeys(alias_map.values())
            if self.catalog.table(table).has_column(col.name)
        ]
        if not owners:
            raise BindError(f"column {col.name!r} not found in any bound table")
        if len(owners) > 1:
            raise BindError(
                f"column {col.name!r} is ambiguous across tables {owners}"
            )
        return (owners[0], col.name)

    def _bind_select(
        self, items: tuple[ast.SelectItem, ...], alias_map: dict[str, str]
    ) -> AggSpec:
        aggs = [item for item in items if isinstance(item, ast.FuncCall)]
        if not aggs:
            raise BindError("query must contain an aggregate (COUNT/SUM/...)")
        if len(aggs) > 1:
            raise BindError("only one aggregate per query is supported")
        func = aggs[0]
        kind = _AGG_KINDS.get(func.func)
        if kind is None:
            raise BindError(f"unsupported aggregate function {func.func!r}")
        if isinstance(func.arg, ast.Star):
            if kind is not AggKind.COUNT or func.distinct:
                raise BindError("'*' is only valid inside plain COUNT(*)")
            return AggSpec(AggKind.COUNT)
        table, column = self._resolve_column(func.arg, alias_map)
        if kind is AggKind.COUNT and func.distinct:
            return AggSpec(AggKind.COUNT_DISTINCT, table, column)
        if func.distinct:
            raise BindError(f"DISTINCT is only supported inside COUNT, not {func.func}")
        return AggSpec(kind, table, column)

    # ------------------------------------------------------------------
    def _bind_condition(
        self,
        expr: ast.Expression,
        alias_map: dict[str, str],
        joins: list[JoinCondition],
        predicates: list[TablePredicate],
        or_groups: list[tuple[TablePredicate, ...]],
    ) -> None:
        """Normalize one conjunct tree into joins / predicates / OR-groups."""
        for conjunct in ast.conjuncts_of(expr):
            if isinstance(conjunct, ast.Or):
                group = tuple(
                    self._bind_simple_predicate(d, alias_map)
                    for d in ast.disjuncts_of(conjunct)
                )
                or_groups.append(group)
                continue
            join = self._try_bind_join(conjunct, alias_map)
            if join is not None:
                joins.append(join)
                continue
            predicates.append(self._bind_simple_predicate(conjunct, alias_map))

    def _try_bind_join(
        self, expr: ast.Expression, alias_map: dict[str, str]
    ) -> JoinCondition | None:
        if (
            isinstance(expr, ast.Comparison)
            and expr.op == "="
            and isinstance(expr.left, ast.ColumnRef)
            and isinstance(expr.right, ast.ColumnRef)
        ):
            left = self._resolve_column(expr.left, alias_map)
            right = self._resolve_column(expr.right, alias_map)
            if left[0] == right[0]:
                raise BindError(
                    f"column-to-column predicate within table {left[0]!r} is "
                    "not supported"
                )
            return JoinCondition(left[0], left[1], right[0], right[1]).normalized()
        return None

    def _bind_simple_predicate(
        self, expr: ast.Expression, alias_map: dict[str, str], negate: bool = False
    ) -> TablePredicate:
        if isinstance(expr, ast.Not):
            return self._bind_simple_predicate(expr.operand, alias_map, not negate)
        if isinstance(expr, ast.InList):
            if negate:
                raise BindError("NOT IN is not supported")
            table, column = self._resolve_column(expr.column, alias_map)
            values = tuple(
                self._encode(table, column, literal.value) for literal in expr.values
            )
            return TablePredicate(table, column, PredicateOp.IN, values)
        if isinstance(expr, ast.Between):
            if negate:
                raise BindError("NOT BETWEEN is not supported")
            table, column = self._resolve_column(expr.column, alias_map)
            low = self._encode(table, column, expr.low.value)
            high = self._encode(table, column, expr.high.value)
            return TablePredicate(table, column, PredicateOp.BETWEEN, (low, high))
        if isinstance(expr, ast.Comparison):
            return self._bind_comparison(expr, alias_map, negate)
        raise BindError(f"unsupported predicate form: {expr}")

    def _bind_comparison(
        self, expr: ast.Comparison, alias_map: dict[str, str], negate: bool
    ) -> TablePredicate:
        op = _COMPARISON_OPS.get(expr.op)
        if op is None:
            raise BindError(f"unsupported comparison operator {expr.op!r}")
        left, right = expr.left, expr.right
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            left, right = right, left
            op = _FLIPPED[op]
        if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal)):
            raise BindError(f"comparison must be column-vs-literal: {expr}")
        if negate:
            op = _NEGATED[op]
        table, column = self._resolve_column(left, alias_map)
        value = self._encode(table, column, right.value)
        return TablePredicate(table, column, op, value)

    def _encode(self, table: str, column: str, literal: object) -> float:
        return self.catalog.table(table).column(column).encode_literal(literal)


def bind_sql(sql: str, catalog: Catalog, name: str = "") -> CardQuery:
    """Parse and bind a SQL string in one step, once per table state.

    The bound query is memoized in ``catalog.bound_queries`` under
    ``(sql, name)`` together with the :meth:`Catalog.table_state` of every
    table the text names, read *before* binding: a later append, delete or
    :meth:`Catalog.replace` of any of them moves its state, and the text is
    parsed and bound again.  A text that fails to bind is never memoized.
    """
    key = (sql, name)
    memo = catalog.bound_queries
    entry = memo.get(key)
    if entry is not None:
        query, states = entry
        if all(catalog.table_state(table) == state for table, state in states):
            return query
    # Looked up on the module at call time, so a wrapped ``parse_sql`` (the
    # ledger's span instrumentation) sees every miss.
    statement = parser.parse_sql(sql)
    refs = statement.from_tables + tuple(join.table for join in statement.joins)
    tables = dict.fromkeys(ref.table for ref in refs)
    states = tuple((table, catalog.table_state(table)) for table in tables)
    query = Binder(catalog).bind(statement, name=name)
    memo.put(key, (query, states))
    return query

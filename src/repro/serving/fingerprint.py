"""Canonical query fingerprints for the estimate cache.

Two queries that are *semantically* the same estimate must map to the same
cache key: predicate order must not matter, duplicated predicates must
collapse, and equivalent range spellings (``x >= 2 AND x <= 5`` versus
``x BETWEEN 2 AND 5``, repeated bounds, redundant looser bounds) must
normalize to one form.  The fingerprint therefore reduces each column's
conjunctive predicates to a canonical constraint record:

* an ``EQ`` value set and an ``NE`` value set (sorted, deduplicated);
* one ``IN`` set -- the intersection of all ``IN`` lists (AND semantics);
* one lower and one upper bound, each ``(value, strict)``, keeping only the
  tightest bound (``BETWEEN`` contributes both inclusive bounds).

Join conditions are normalized and sorted, OR-groups are deduplicated and
order-canonicalized, and the aggregate/group-by shape is included so COUNT,
COUNT DISTINCT and grouped variants never collide.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.sql.query import CardQuery, PredicateOp, TablePredicate

#: fingerprint type alias -- an opaque hashable tuple
Fingerprint = Hashable


def _value_key(value: float | tuple[float, ...]) -> Hashable:
    if isinstance(value, tuple):
        return tuple(sorted(float(v) for v in value))
    return float(value)


def _predicate_signature(pred: TablePredicate) -> Hashable:
    """Order-insensitive signature of one predicate (used inside OR-groups,
    where interval merging does not apply -- members are alternatives)."""
    value: Hashable
    if pred.op is PredicateOp.BETWEEN:
        low, high = pred.value  # type: ignore[misc]
        value = (float(low), float(high))
    else:
        value = _value_key(pred.value)
    return (pred.table, pred.column, pred.op.value, value)


def _tighter_low(
    current: tuple[float, bool] | None, candidate: tuple[float, bool]
) -> tuple[float, bool]:
    """Keep the larger lower bound; at equal values, strict (>) wins."""
    if current is None:
        return candidate
    if candidate[0] != current[0]:
        return candidate if candidate[0] > current[0] else current
    return (current[0], current[1] or candidate[1])


def _tighter_high(
    current: tuple[float, bool] | None, candidate: tuple[float, bool]
) -> tuple[float, bool]:
    """Keep the smaller upper bound; at equal values, strict (<) wins."""
    if current is None:
        return candidate
    if candidate[0] != current[0]:
        return candidate if candidate[0] < current[0] else current
    return (current[0], current[1] or candidate[1])


def column_constraint(predicates: Sequence[TablePredicate]) -> Hashable:
    """Canonical constraint record of one column's AND-ed predicates."""
    eq: set[float] = set()
    ne: set[float] = set()
    in_sets: list[frozenset[float]] = []
    low: tuple[float, bool] | None = None
    high: tuple[float, bool] | None = None
    for pred in predicates:
        if pred.op is PredicateOp.EQ:
            eq.add(float(pred.value))  # type: ignore[arg-type]
        elif pred.op is PredicateOp.NE:
            ne.add(float(pred.value))  # type: ignore[arg-type]
        elif pred.op is PredicateOp.IN:
            in_sets.append(frozenset(float(v) for v in pred.value))  # type: ignore[union-attr]
        elif pred.op in (PredicateOp.GE, PredicateOp.GT):
            low = _tighter_low(
                low, (float(pred.value), pred.op is PredicateOp.GT)  # type: ignore[arg-type]
            )
        elif pred.op in (PredicateOp.LE, PredicateOp.LT):
            high = _tighter_high(
                high, (float(pred.value), pred.op is PredicateOp.LT)  # type: ignore[arg-type]
            )
        elif pred.op is PredicateOp.BETWEEN:
            lo, hi = pred.value  # type: ignore[misc]
            low = _tighter_low(low, (float(lo), False))
            high = _tighter_high(high, (float(hi), False))
        else:  # pragma: no cover - exhaustive over PredicateOp
            raise AssertionError(f"unhandled predicate op {pred.op!r}")
    members = frozenset.intersection(*in_sets) if in_sets else None
    return (
        tuple(sorted(eq)),
        tuple(sorted(ne)),
        tuple(sorted(members)) if members is not None else None,
        low,
        high,
    )


def table_scope_fingerprint(
    table: str,
    predicates: Sequence[TablePredicate],
    or_groups: Sequence[Sequence[TablePredicate]],
) -> Fingerprint:
    """Canonical identity of one table's local predicate scope.

    This keys the shared-belief plan cache: one (table, AND-predicates,
    OR-groups) scope maps to one set of inference artifacts regardless of
    which join query produced it.  Same canonicalization rules as
    :func:`query_fingerprint`, restricted to a single table's predicates.
    """
    per_column: dict[str, list[TablePredicate]] = {}
    for pred in predicates:
        per_column.setdefault(pred.column, []).append(pred)
    predicate_part = tuple(
        (column, column_constraint(preds))
        for column, preds in sorted(per_column.items())
    )
    or_part = tuple(
        sorted(
            tuple(sorted(set(_predicate_signature(p) for p in group)))
            for group in or_groups
        )
    )
    return (table, predicate_part, or_part)


def request_fingerprint(
    task: str, scope: str, fingerprint: Fingerprint
) -> Fingerprint:
    """The cache key of one serving request.

    ``task`` ("count" / "ndv" / "group_ndv" / "selectivity") keeps a
    selectivity from answering a COUNT request for the same query.  ``scope`` is the
    serving estimator's ``name``: one core serves one estimator, so the
    scope is constant per cache and only names whose answers it holds.
    ``fingerprint`` is the canonical :func:`query_fingerprint`.
    """
    return (task, scope, fingerprint)


def query_fingerprint(query: CardQuery) -> Fingerprint:
    """The canonical, hashable identity of one estimation request.

    Stable under predicate reordering, duplication, and equivalent range
    spellings; distinct across different tables, joins, aggregates, OR-group
    structure, and group-by keys.
    """
    per_column: dict[tuple[str, str], list[TablePredicate]] = {}
    for pred in query.predicates:
        per_column.setdefault((pred.table, pred.column), []).append(pred)
    predicate_part = tuple(
        (table, column, column_constraint(preds))
        for (table, column), preds in sorted(per_column.items())
    )
    join_part = tuple(
        sorted(
            (
                j.normalized().left_table,
                j.normalized().left_column,
                j.normalized().right_table,
                j.normalized().right_column,
            )
            for j in query.joins
        )
    )
    or_part = tuple(
        sorted(
            tuple(sorted(set(_predicate_signature(p) for p in group)))
            for group in query.or_groups
        )
    )
    return (
        tuple(sorted(query.tables)),
        join_part,
        predicate_part,
        or_part,
        tuple(sorted(query.group_by)),
        (query.agg.kind.value, query.agg.table, query.agg.column),
    )

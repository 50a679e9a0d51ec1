"""Single-table COUNT estimation with per-table tree BNs.

Wraps one :class:`TreeBayesNet` per table behind the :class:`CountEstimator`
interface.  OR-groups are handled the way the paper describes: "ByteCard
uses the inclusion-exclusion principle to transform OR-ed queries to AND-ed
formats before calculating selectivities" -- the AND-ed terms of a whole
batch of queries are the columns of one sweep of the table's inference
context.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from repro.errors import EstimationError
from repro.estimators.base import CountEstimator
from repro.estimators.bn.model import TreeBayesNet, fit_tree_bn
from repro.sql.query import CardQuery, TablePredicate
from repro.storage.catalog import Catalog
from repro.utils.lru import GenerationLRU


class BNCountEstimator(CountEstimator):
    """Per-table tree-BN COUNT estimator (single-table queries only)."""

    name = "bn"

    def __init__(
        self,
        models: dict[str, TreeBayesNet],
        evidence_cache: GenerationLRU | None = None,
        catalog: Catalog | None = None,
    ):
        self.models = dict(models)
        #: compiled predicate -> bin-mask vectors (see ``new_evidence_cache``);
        #: without one every predicate's mask is rebuilt per sweep
        self.evidence_cache = evidence_cache
        #: the live tables a COUNT scales by; without one, the row count
        #: each model was trained on
        self.catalog = catalog

    @classmethod
    def train(
        cls,
        catalog: Catalog,
        columns_per_table: dict[str, list[str]],
        max_bins: int = 64,
        sample_rows: int | None = None,
    ) -> "BNCountEstimator":
        """Train one BN per table over the given column selections."""
        models = {
            table: fit_tree_bn(
                catalog.table(table),
                columns,
                max_bins=max_bins,
                sample_rows=sample_rows,
            )
            for table, columns in columns_per_table.items()
        }
        return cls(models, catalog=catalog)

    def model_for(self, table: str) -> TreeBayesNet:
        try:
            return self.models[table]
        except KeyError:
            raise EstimationError(f"no BN model for table {table!r}") from None

    # ------------------------------------------------------------------
    def _selectivities(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """Selectivity of each query's predicates (incl. OR-groups) on ``table``.

        Every conjunctive term of the batch -- a plain query is one term,
        an OR-group query one per inclusion-exclusion subset -- is a column
        of one upward sweep fed from the evidence cache.
        """
        model = self.model_for(table)
        swept = iter(
            model.selectivities(
                [
                    term
                    for query in queries
                    for term in or_expansion_term_predicates(
                        query.predicates, query.or_groups
                    )
                ],
                self.evidence_cache,
            ).tolist()
        )
        # The expansion asks for its terms in exactly the order they were
        # listed (and swept), so each evaluation is the next column.
        def next_column(_term: Sequence[TablePredicate]) -> float:
            return next(swept)

        return [
            _selectivity_with_or_groups(
                model, query.predicates, query.or_groups, next_column
            )
            for query in queries
        ]

    def selectivity(self, query: CardQuery) -> float:
        _require_single_table(query)
        return self._selectivities(query.tables[0], [query])[0]

    def estimate_count(self, query: CardQuery) -> float:
        _require_single_table(query)
        return self.estimate_count_batch(query.tables[0], [query])[0]

    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """Estimate a batch of single-table COUNT queries on one table.

        One sweep serves the whole batch (:meth:`_selectivities`), scaled
        by the table's live row count, so a COUNT follows appends and
        deletes the way a join's does; results align with the input order.
        """
        for query in queries:
            if not query.is_single_table() or query.tables[0] != table:
                raise EstimationError(
                    f"batch for table {table!r} received query on "
                    f"{query.tables!r}"
                )
        if self.catalog is None:
            total_rows = self.model_for(table).total_rows
        else:
            total_rows = len(self.catalog.table(table))
        return [
            selectivity * total_rows
            for selectivity in self._selectivities(table, queries)
        ]

    def estimation_overhead(self, query: CardQuery) -> float:
        # One tree message pass: linear in nodes, tiny constants.
        model = self.model_for(query.tables[0])
        return 0.03 + 0.005 * len(model.columns)


def _require_single_table(query: CardQuery) -> None:
    if not query.is_single_table():
        raise EstimationError(
            "BNCountEstimator handles single tables; use FactorJoin for joins"
        )


def table_or_groups(
    query: CardQuery, table: str
) -> list[list[TablePredicate]]:
    """``table``'s OR-groups, validating that no group spans tables."""
    for group in query.or_groups:
        tables_in_group = {p.table for p in group}
        if table in tables_in_group and tables_in_group != {table}:
            raise EstimationError(
                "OR-groups spanning multiple tables are not supported"
            )
    return [
        [p for p in group if p.table == table]
        for group in query.or_groups
        if any(p.table == table for p in group)
    ]


def _selectivity_with_or_groups(
    model: TreeBayesNet,
    base: Sequence[TablePredicate],
    groups: Sequence[Sequence[TablePredicate]],
    selectivity_fn: Callable[[Sequence[TablePredicate]], float] | None = None,
) -> float:
    """Inclusion-exclusion over OR-groups, evaluated by the BN.

    ``P(base AND (g1a OR g1b) AND ...)`` expands into signed conjunctive
    terms; each conjunctive term is one BN selectivity call.  The expansion
    is exponential in the number of OR-groups, which is fine for the 1-2
    groups real queries carry (the paper applies the same transform).

    ``selectivity_fn`` substitutes the per-term evaluator (default: one
    ``model.selectivity`` sweep per term) -- the estimators sweep every term
    of :func:`or_expansion_term_predicates` as one batch and pass a lookup
    here, so the expansion structure (term order, per-level clipping) is
    the same whoever evaluates the terms.
    """
    if selectivity_fn is None:
        selectivity_fn = model.selectivity
    if not groups:
        return selectivity_fn(base)
    total = 0.0
    first, rest = groups[0], groups[1:]
    # Inclusion-exclusion over the members of the first group, recursing
    # into the remaining groups.
    for size in range(1, len(first) + 1):
        sign = (-1.0) ** (size + 1)
        for subset in combinations(first, size):
            total += sign * _selectivity_with_or_groups(
                model, (*base, *subset), rest, selectivity_fn
            )
    return float(min(max(total, 0.0), 1.0))


def or_expansion_term_predicates(
    base: Sequence[TablePredicate],
    groups: Sequence[Sequence[TablePredicate]],
) -> list[tuple[TablePredicate, ...]]:
    """Every conjunctive term :func:`_selectivity_with_or_groups` evaluates.

    Mirrors the expansion recursion exactly -- same subset enumeration,
    same ``base + subset`` concatenation order (just ``base`` when there
    are no groups) -- so the returned tuples are the keys its per-term
    evaluator will be asked for, and all of them can ride in one sweep.
    """
    terms = [tuple(base)]
    for group in groups:
        subsets = [
            subset
            for size in range(1, len(group) + 1)
            for subset in combinations(group, size)
        ]
        terms = [term + subset for term in terms for subset in subsets]
    return terms


def or_expansion_terms(groups: list[list[TablePredicate]]) -> int:
    """Conjunctive terms (BN passes) the inclusion-exclusion expansion costs.

    One per non-empty member subset of each group, multiplied across groups;
    zero when there are no groups (the AND-only pass is counted separately).
    """
    if not groups:
        return 0
    terms = 1
    for group in groups:
        terms *= (1 << len(group)) - 1
    return terms

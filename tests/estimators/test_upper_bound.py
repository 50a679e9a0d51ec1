"""The UES upper bound's one contract: it NEVER underestimates."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.estimators
from repro.engine import partitioned_scan
from repro.estimators.ues import UpperBoundEstimator
from repro.errors import EstimationError
from repro.sql.query import (
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)
from repro.storage import Catalog, IOCounter, Table, prune_partitions
from repro.workloads import job_hybrid, stats_hybrid
from repro.workloads.truth import true_count


@pytest.fixture(scope="module")
def imdb_upper(imdb):
    return UpperBoundEstimator(imdb.catalog)


# ----------------------------------------------------------------------
# The property, over randomized generated workloads
# ----------------------------------------------------------------------
def test_never_underestimates_on_imdb_workloads(imdb, imdb_upper):
    checked = 0
    for seed in (3, 77, 311):
        workload = job_hybrid(imdb, num_queries=20, seed=seed)
        for query in workload.queries:
            truth = workload.true_counts[query.name]
            bound = imdb_upper.estimate_count(query)
            assert bound >= truth, (query.name, bound, truth)
            checked += 1
    assert checked >= 50


def test_never_underestimates_on_stats_workload(stats):
    upper = UpperBoundEstimator(stats.catalog)
    workload = stats_hybrid(stats, num_queries=25, seed=13)
    for query in workload.queries:
        truth = workload.true_counts[query.name]
        assert upper.estimate_count(query) >= truth, query.name


def test_never_underestimates_on_random_predicates(imdb, imdb_upper, rng):
    """Handcrafted randomized single-table and join probes: EQ / IN / NE /
    ranges / OR-groups, beyond what the generators emit."""
    catalog = imdb.catalog
    tables = catalog.table_names()
    for trial in range(60):
        table = tables[int(rng.integers(len(tables)))]
        columns = list(imdb.filter_columns.get(table, []))
        if not columns:
            continue
        preds = []
        for _ in range(int(rng.integers(1, 3))):
            column = columns[int(rng.integers(len(columns)))]
            values = catalog.table(table).column(column).values
            anchor = float(values[int(rng.integers(values.size))])
            roll = rng.random()
            if roll < 0.3:
                preds.append(TablePredicate(table, column, PredicateOp.EQ, anchor))
            elif roll < 0.5:
                members = tuple(
                    float(v)
                    for v in np.unique(
                        values[rng.integers(values.size, size=3)]
                    )
                )
                preds.append(
                    TablePredicate(table, column, PredicateOp.IN, members)
                )
            elif roll < 0.7:
                preds.append(TablePredicate(table, column, PredicateOp.LE, anchor))
            elif roll < 0.85:
                preds.append(TablePredicate(table, column, PredicateOp.NE, anchor))
            else:
                preds.append(TablePredicate(table, column, PredicateOp.GE, anchor))
        query = CardQuery(
            tables=(table,), predicates=tuple(preds), name=f"rand-{trial}"
        )
        truth = true_count(catalog, query)
        assert imdb_upper.estimate_count(query) >= truth, query.name


def test_join_bound_holds_with_filters(imdb, imdb_upper):
    query = CardQuery(
        tables=("title", "cast_info"),
        joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.GE, 1990.0),
        ),
    )
    truth = true_count(imdb.catalog, query)
    bound = imdb_upper.estimate_count(query)
    assert bound >= truth
    # And the bound is finite, not a vacuous infinity.
    assert np.isfinite(bound)


# ----------------------------------------------------------------------
# Construction details
# ----------------------------------------------------------------------
def test_selectivity_is_single_table_only(imdb_upper):
    join = CardQuery(
        tables=("title", "cast_info"),
        joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
    )
    with pytest.raises(EstimationError):
        imdb_upper.selectivity(join)
    single = CardQuery(tables=("title",))
    assert 0.0 < imdb_upper.selectivity(single) <= 1.0


def test_estimation_overhead_grows_with_the_join_graph(imdb_upper):
    single = CardQuery(tables=("title",))
    join = CardQuery(
        tables=("title", "cast_info"),
        joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
    )
    assert 0.0 < imdb_upper.estimation_overhead(single)
    assert imdb_upper.estimation_overhead(single) < imdb_upper.estimation_overhead(join)


def test_max_frequency_exact(imdb, imdb_upper):
    values = imdb.catalog.table("title").column("kind_id").values
    expected = float(np.unique(values, return_counts=True)[1].max())
    assert imdb_upper.max_frequency("title", "kind_id") == expected
    # Cached on repeat (same generation signature).
    assert imdb_upper.max_frequency("title", "kind_id") == expected


def test_eq_predicate_caps_at_max_frequency(imdb, imdb_upper):
    values = imdb.catalog.table("title").column("kind_id").values
    anchor = float(values[0])
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "kind_id", PredicateOp.EQ, anchor),
        ),
    )
    bound = imdb_upper.estimate_count(query)
    assert bound <= imdb_upper.max_frequency("title", "kind_id")
    assert bound >= true_count(imdb.catalog, query)


def test_empty_table_bounds_to_zero(imdb_upper, imdb):
    # An impossible EQ on an unfiltered column still bounds correctly:
    # never below the (zero) truth.
    query = CardQuery(
        tables=("title",),
        predicates=(
            TablePredicate("title", "production_year", PredicateOp.EQ, -1e9),
        ),
    )
    truth = true_count(imdb.catalog, query)
    assert imdb_upper.estimate_count(query) >= truth


# ----------------------------------------------------------------------
# One zone-map refutation rule, shared with the engine's scan
# ----------------------------------------------------------------------
def _partitioned_catalog():
    rng = np.random.default_rng(11)
    table = Table.from_arrays(
        "p",
        {
            "key": np.sort(rng.integers(0, 1000, 4000)),
            "noise": rng.integers(0, 100, 4000),
        },
        block_size=100,
        partitions=4,
    )
    catalog = Catalog()
    catalog.register(table)
    return catalog, table


@pytest.mark.parametrize(
    "predicates, or_groups",
    [
        ((TablePredicate("p", "key", PredicateOp.GE, 800.0),), ()),
        ((TablePredicate("p", "key", PredicateOp.LT, 0.0),), ()),
        ((TablePredicate("p", "noise", PredicateOp.LT, 50.0),), ()),
        (
            (),
            (
                (
                    TablePredicate("p", "key", PredicateOp.LE, 50.0),
                    TablePredicate("p", "key", PredicateOp.GE, 950.0),
                ),
            ),
        ),
    ],
    ids=["tail", "unsatisfiable", "unclustered", "or_group"],
)
def test_single_table_bound_counts_the_scan_survivors(predicates, or_groups):
    catalog, table = _partitioned_catalog()
    query = CardQuery(tables=("p",), predicates=predicates, or_groups=or_groups)
    survivors, pruned = prune_partitions(table, query)
    assert UpperBoundEstimator(catalog).table_bound(query, "p") == sum(
        p.num_rows for p in survivors
    )
    scan = partitioned_scan(table, query, [], IOCounter())
    assert scan.pruned_partition_indices == tuple(pruned)
    assert UpperBoundEstimator(catalog).table_bound(query, "p") >= true_count(
        catalog, query
    )


def test_estimators_import_nothing_from_the_engine():
    package = Path(repro.estimators.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n == "repro.engine" or n.startswith("repro.engine.") for n in names):
                offenders.append(str(path.relative_to(package)))
    assert offenders == []

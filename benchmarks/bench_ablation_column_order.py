"""Ablation A1: correlation-aware column ordering (the paper's Example 1).

The paper's Example 1 argues that cross-column correlations change the
optimal multi-stage read order: a column that looks selective in isolation
can be worthless once a correlated column has already been applied.  This
bench constructs that situation concretely:

* ``col_b`` passes in 40% of blocks (most selective in isolation),
* ``col_c`` passes in 45% of blocks but is almost fully implied by
  ``col_b`` (their pass-sets overlap), and
* ``col_a`` passes in 50% of blocks, independent of both.

Naive single-selectivity ranking reads ``col_b -> col_c -> col_a`` and
wastes a full stage on ``col_c`` (which filters nothing after ``col_b``).
The BN-driven optimizer learns the correlation and reads ``col_b -> col_a
-> col_c``, touching fewer blocks.
"""

from __future__ import annotations

import numpy as np
from conftest import record_table, render_grid

from repro.engine import multi_stage_scan
from repro.engine.optimizer import Optimizer
from repro.estimators.bn import BNCountEstimator
from repro.estimators.traditional import SelingerEstimator
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.storage import Catalog, IOCounter, Table

_BLOCK = 1024
_NUM_BLOCKS = 256


def _example_table():
    rng = np.random.default_rng(321)
    pass_b = rng.random(_NUM_BLOCKS) < 0.30
    extra = rng.random(_NUM_BLOCKS) < 0.07  # lifts C a little above B
    pass_c = pass_b | extra
    pass_a = rng.random(_NUM_BLOCKS) < 0.40
    def expand(block_flags):
        return np.repeat(block_flags.astype(np.int64), _BLOCK)
    return Table.from_arrays(
        "example1",
        {
            "col_a": expand(pass_a),
            "col_b": expand(pass_b),
            "col_c": expand(pass_c),
        },
        block_size=_BLOCK,
    )


def _query():
    return CardQuery(
        tables=("example1",),
        predicates=(
            TablePredicate("example1", "col_a", PredicateOp.EQ, 1.0),
            TablePredicate("example1", "col_b", PredicateOp.EQ, 1.0),
            TablePredicate("example1", "col_c", PredicateOp.EQ, 1.0),
        ),
    )


def _measure() -> dict[str, object]:
    table = _example_table()
    catalog = Catalog()
    catalog.register(table)
    query = _query()

    # Naive ordering: rank by individual selectivity (sketch histograms).
    sketch = SelingerEstimator(catalog)
    singles = {
        pred.column: sketch.histogram("example1", pred.column).selectivity(pred)
        for pred in query.predicates
    }
    naive_order = sorted(singles, key=singles.get)

    # Correlation-aware ordering: the BN-driven optimizer's greedy
    # conditional-selectivity enumeration.
    bn = BNCountEstimator.train(
        catalog, {"example1": ["col_a", "col_b", "col_c"]}
    )
    optimizer = Optimizer(bn, None)
    plan = optimizer.plan(query)
    aware_order = plan.column_orders.get("example1", naive_order)

    blocks = {}
    for name, order in (("naive", naive_order), ("correlation-aware", aware_order)):
        io = IOCounter()
        result = multi_stage_scan(
            table, query, [], io, table.partition(0), column_order=list(order)
        )
        blocks[name] = result.blocks_read
    return {
        "naive_order": naive_order,
        "aware_order": aware_order,
        "blocks": blocks,
        "singles": {k: round(v, 3) for k, v in singles.items()},
    }


def test_ablation_column_order(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    blocks = result["blocks"]
    rows = [
        [
            "naive (independent selectivities)",
            " -> ".join(result["naive_order"]),
            str(blocks["naive"]),
        ],
        [
            "correlation-aware (BN)",
            " -> ".join(result["aware_order"]),
            str(blocks["correlation-aware"]),
        ],
    ]
    table = render_grid(
        "Ablation A1: column ordering under cross-column correlation "
        f"(Example 1 scenario; singles={result['singles']})",
        ["strategy", "column order", "blocks read"],
        rows,
    )
    record_table("ablation_column_order", table)

    # Naive ranks col_c before col_a (0.45 < 0.50); the aware order demotes
    # the redundant correlated column and reads strictly fewer blocks.
    naive, aware = result["naive_order"], result["aware_order"]
    assert naive.index("col_c") < naive.index("col_a")
    assert aware.index("col_a") < aware.index("col_c")
    assert blocks["correlation-aware"] < blocks["naive"]

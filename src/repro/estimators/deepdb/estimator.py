"""DeepDB estimator: per-table SPNs plus denormalized join SPNs.

Training materializes, for every collected join edge, a (sampled)
denormalized relation joining the two tables, and learns an SPN over it --
the denormalization strategy the paper identifies as the reason for
DeepDB's "longer training times and larger model sizes" in Table 3.

Estimation uses the single-table SPN for one-table queries and combines
join-edge SPNs along the query's join tree: each edge SPN yields the
filtered edge-join cardinality, and overlapping tables are divided out
(an acyclic-join composition, analogous to how DeepDB merges ensembles).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError, TrainingError
from repro.estimators.base import CountEstimator
from repro.estimators.bn.discretize import Discretizer
from repro.estimators.deepdb.spn import SPNNode, learn_spn
from repro.datasets.base import DatasetBundle
from repro.sql.query import CardQuery, TablePredicate
from repro.storage.catalog import Catalog
from repro.utils.rng import derive_rng


class _TableSPN:
    """An SPN over one (possibly denormalized) relation."""

    def __init__(
        self,
        columns: list[tuple[str, str]],
        data: np.ndarray,
        base_rows: int,
        max_bins: int,
        rng: np.random.Generator,
        min_instances: int = 256,
    ):
        self.columns = columns
        self.base_rows = base_rows
        self._index = {key: i for i, key in enumerate(columns)}
        self.discretizers = [
            Discretizer(data[:, i], max_bins=max_bins) for i in range(len(columns))
        ]
        self.root: SPNNode = learn_spn(
            data, self.discretizers, min_instances=min_instances, rng=rng
        )

    def covers(self, predicates: list[TablePredicate]) -> bool:
        return all((p.table, p.column) in self._index for p in predicates)

    def probability(self, predicates: list[TablePredicate]) -> float:
        evidence = [
            np.ones(disc.num_bins) for disc in self.discretizers
        ]
        for pred in predicates:
            index = self._index[(pred.table, pred.column)]
            evidence[index] = evidence[index] * self.discretizers[index].evidence(pred)
        return max(0.0, self.root.probability(evidence))

    def estimate_rows(self, predicates: list[TablePredicate]) -> float:
        return self.probability(predicates) * self.base_rows

    @property
    def nbytes(self) -> int:
        return self.root.size_bytes() + sum(d.nbytes for d in self.discretizers)


class DeepDBEstimator(CountEstimator):
    """SPN-ensemble COUNT estimator."""

    name = "deepdb"

    def __init__(
        self,
        catalog: Catalog,
        table_spns: dict[str, _TableSPN],
        edge_spns: dict[frozenset[str], tuple[_TableSPN, int]],
    ):
        self.catalog = catalog
        self.table_spns = table_spns
        self.edge_spns = edge_spns

    def estimate_count(self, query: CardQuery) -> float:
        if query.or_groups:
            raise EstimationError("DeepDB baseline does not support OR predicates")
        if query.is_single_table():
            table = query.tables[0]
            spn = self.table_spns.get(table)
            if spn is None:
                raise EstimationError(f"no SPN for table {table!r}")
            return spn.estimate_rows(list(query.predicates))
        # Compose edge SPNs along the join tree:
        #   |T1 .. Tk| ~= prod_edges |edge join| / prod_inner tables |T|
        # where each factor is evaluated under the query's predicates.
        estimate = 1.0
        degree: dict[str, int] = {t: 0 for t in query.tables}
        for join in query.joins:
            key = frozenset(join.tables())
            entry = self.edge_spns.get(key)
            if entry is None:
                raise EstimationError(
                    f"no denormalized SPN for join {sorted(key)}"
                )
            spn, join_rows = entry
            predicates = [
                p for p in query.predicates if p.table in key and spn.covers([p])
            ]
            estimate *= max(spn.probability(predicates) * join_rows, 1e-9)
            for table in key:
                degree[table] += 1
        for table, count in degree.items():
            if count > 1:
                spn = self.table_spns[table]
                local = [p for p in query.predicates if p.table == table]
                filtered_rows = max(spn.estimate_rows(local), 1.0)
                estimate /= filtered_rows ** (count - 1)
        return max(estimate, 0.0)

    @property
    def nbytes(self) -> int:
        total = sum(spn.nbytes for spn in self.table_spns.values())
        total += sum(spn.nbytes for spn, _rows in self.edge_spns.values())
        return total


def train_deepdb(
    bundle: DatasetBundle,
    max_bins: int = 64,
    denormalized_sample_rows: int = 60_000,
    min_instances: int = 128,
    seed: int = 23,
) -> DeepDBEstimator:
    """Train the DeepDB ensemble: table SPNs + denormalized join-edge SPNs.

    ``min_instances`` controls SPN depth (DeepDB's RDC/row-split recursion
    bottoms out at this cluster size); smaller values grow deeper, larger
    ensembles -- the model-size behaviour Table 3 contrasts with ByteCard.
    """
    catalog = bundle.catalog
    rng = derive_rng(seed, "deepdb")
    table_spns: dict[str, _TableSPN] = {}
    for table_name in catalog.table_names():
        columns = bundle.filter_columns.get(table_name, [])
        if not columns:
            continue
        table = catalog.table(table_name)
        data = np.stack(
            [table.column(c).values.astype(np.float64) for c in columns], axis=1
        )
        table_spns[table_name] = _TableSPN(
            [(table_name, c) for c in columns],
            data,
            base_rows=len(table),
            max_bins=max_bins,
            rng=rng,
            min_instances=min_instances,
        )

    edge_spns: dict[frozenset[str], tuple[_TableSPN, int]] = {}
    for edge in catalog.join_schema:
        left = catalog.table(edge.left_table)
        right = catalog.table(edge.right_table)
        left_cols = bundle.filter_columns.get(edge.left_table, [])
        right_cols = bundle.filter_columns.get(edge.right_table, [])
        if not left_cols and not right_cols:
            continue
        data, join_rows = _denormalize(
            left.column(edge.left_column).values,
            right.column(edge.right_column).values,
            np.stack(
                [left.column(c).values.astype(np.float64) for c in left_cols],
                axis=1,
            )
            if left_cols
            else np.empty((len(left), 0)),
            np.stack(
                [right.column(c).values.astype(np.float64) for c in right_cols],
                axis=1,
            )
            if right_cols
            else np.empty((len(right), 0)),
            cap=denormalized_sample_rows,
            rng=rng,
        )
        if data.shape[0] == 0:
            continue
        columns = [(edge.left_table, c) for c in left_cols] + [
            (edge.right_table, c) for c in right_cols
        ]
        edge_spns[frozenset((edge.left_table, edge.right_table))] = (
            _TableSPN(
                columns,
                data,
                base_rows=join_rows,
                max_bins=max_bins,
                rng=rng,
                min_instances=min_instances,
            ),
            join_rows,
        )
    if not table_spns:
        raise TrainingError("no tables with filter columns to train on")
    return DeepDBEstimator(catalog, table_spns, edge_spns)


def _denormalize(
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    left_data: np.ndarray,
    right_data: np.ndarray,
    cap: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Materialize the equi-join of two relations (sampled to ``cap`` rows).

    Returns the joined feature matrix and the *exact* join cardinality (the
    SPN learns the distribution from the sample; the cardinality anchors
    its row scale).
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    join_rows = int(counts.sum())
    if join_rows == 0:
        return np.empty((0, left_data.shape[1] + right_data.shape[1])), 0
    left_index = np.repeat(np.arange(left_keys.size), counts)
    right_index = order[
        np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
    ]
    if join_rows > cap:
        pick = rng.choice(join_rows, size=cap, replace=False)
        left_index = left_index[pick]
        right_index = right_index[pick]
    data = np.concatenate(
        [left_data[left_index], right_data[right_index]], axis=1
    )
    return data, join_rows

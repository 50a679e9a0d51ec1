"""Tests for the DeepDB SPN baseline."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimators.deepdb import (
    LeafNode,
    ProductNode,
    SumNode,
    learn_spn,
    train_deepdb,
)
from repro.estimators.bn.discretize import Discretizer
from repro.metrics import qerror
from repro.sql.query import CardQuery, JoinCondition, PredicateOp, TablePredicate
from repro.workloads import true_count


@pytest.fixture(scope="module")
def deepdb(imdb):
    return train_deepdb(imdb, denormalized_sample_rows=20_000)


class TestSPNNodes:
    def test_leaf_probability(self):
        leaf = LeafNode(0, np.array([0.2, 0.8]))
        assert leaf.probability([np.array([1.0, 0.0])]) == pytest.approx(0.2)

    def test_product_multiplies(self):
        node = ProductNode(
            [LeafNode(0, np.array([0.5, 0.5])), LeafNode(1, np.array([0.25, 0.75]))]
        )
        evidence = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert node.probability(evidence) == pytest.approx(0.375)
        assert node.scope == (0, 1)

    def test_sum_mixes(self):
        node = SumNode(
            [LeafNode(0, np.array([1.0, 0.0])), LeafNode(0, np.array([0.0, 1.0]))],
            np.array([0.3, 0.7]),
        )
        assert node.probability([np.array([1.0, 0.0])]) == pytest.approx(0.3)

    def test_sum_weight_mismatch(self):
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            SumNode([LeafNode(0, np.array([1.0]))], np.array([0.5, 0.5]))

    def test_node_counts(self):
        node = ProductNode(
            [LeafNode(0, np.array([1.0])), LeafNode(1, np.array([1.0]))]
        )
        assert node.node_count() == 3
        mixture = SumNode([node, LeafNode(0, np.array([1.0]))], np.array([0.5, 0.5]))
        assert mixture.node_count() == 5


class TestLearnSPN:
    def test_independent_columns_produce_product_root(self, rng):
        n = 4000
        data = np.stack(
            [rng.integers(0, 4, n), rng.integers(0, 4, n)], axis=1
        ).astype(np.float64)
        discs = [Discretizer(data[:, i], max_bins=8) for i in range(2)]
        root = learn_spn(data, discs, min_instances=100)
        assert isinstance(root, ProductNode)

    def test_correlated_columns_do_not_split(self, rng):
        n = 4000
        a = rng.integers(0, 4, n)
        b = (a + (rng.random(n) < 0.05)) % 4
        data = np.stack([a, b], axis=1).astype(np.float64)
        discs = [Discretizer(data[:, i], max_bins=8) for i in range(2)]
        root = learn_spn(data, discs, min_instances=100)
        assert not isinstance(root, ProductNode) or len(root.children) == 1

    def test_probability_of_everything_is_one(self, rng):
        data = rng.integers(0, 5, (2000, 3)).astype(np.float64)
        discs = [Discretizer(data[:, i], max_bins=8) for i in range(3)]
        root = learn_spn(data, discs)
        evidence = [np.ones(d.num_bins) for d in discs]
        assert root.probability(evidence) == pytest.approx(1.0, abs=0.01)

    def test_marginal_matches_empirical(self, rng):
        data = rng.integers(0, 4, (5000, 2)).astype(np.float64)
        discs = [Discretizer(data[:, i], max_bins=8) for i in range(2)]
        root = learn_spn(data, discs)
        evidence = [np.zeros(discs[0].num_bins), np.ones(discs[1].num_bins)]
        evidence[0][discs[0].bin_of(np.array([2.0]))[0]] = 1.0
        truth = float(np.mean(data[:, 0] == 2))
        assert root.probability(evidence) == pytest.approx(truth, abs=0.03)

    def test_zero_rows_rejected(self):
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            learn_spn(np.empty((0, 1)), [Discretizer(np.arange(5.0))])


class TestDeepDBEstimator:
    def test_single_table_accuracy(self, imdb, deepdb):
        q = CardQuery(
            tables=("title",),
            predicates=(
                TablePredicate("title", "production_year", PredicateOp.GE, 1970.0),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(deepdb.estimate_count(q), truth) < 2.5

    def test_two_way_join_via_denormalized_spn(self, imdb, deepdb):
        q = CardQuery(
            tables=("title", "cast_info"),
            joins=(JoinCondition("title", "id", "cast_info", "movie_id"),),
            predicates=(
                TablePredicate("cast_info", "role_id", PredicateOp.EQ, 1.0),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(deepdb.estimate_count(q), truth) < 4.0

    def test_multi_way_composition(self, imdb, deepdb):
        q = CardQuery(
            tables=("title", "cast_info", "movie_info"),
            joins=(
                JoinCondition("title", "id", "cast_info", "movie_id"),
                JoinCondition("title", "id", "movie_info", "movie_id"),
            ),
        )
        truth = true_count(imdb.catalog, q)
        assert qerror(deepdb.estimate_count(q), truth) < 6.0

    def test_denormalization_inflates_model_size(self, deepdb):
        """Table 3's headline: DeepDB's join denormalization costs extra
        model size beyond its single-table ensemble."""
        table_bytes = sum(spn.nbytes for spn in deepdb.table_spns.values())
        edge_bytes = sum(spn.nbytes for spn, _r in deepdb.edge_spns.values())
        assert edge_bytes > 0.5 * table_bytes  # denormalized SPNs dominate
        assert deepdb.nbytes == table_bytes + edge_bytes

    def test_or_groups_unsupported(self, imdb, deepdb):
        q = CardQuery(
            tables=("title",),
            or_groups=(
                (
                    TablePredicate("title", "kind_id", PredicateOp.EQ, 0.0),
                    TablePredicate("title", "kind_id", PredicateOp.EQ, 1.0),
                ),
            ),
        )
        with pytest.raises(EstimationError):
            deepdb.estimate_count(q)

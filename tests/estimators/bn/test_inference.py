"""Tests for the immutable inference context and its two sweeps.

The only oracle is :func:`_brute_force_beliefs`, which enumerates the full
joint of a tiny network; the context's ``selectivities`` / ``beliefs`` are
checked against it on every tree shape (chains, wide stars, ragged
star-chains, random trees -- with distinct and with identical sibling bin
counts) and at every batch width.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.estimators.bn import BNInferenceContext


def _chain_context():
    """x0 -> x1, both binary, hand-specified CPDs."""
    prior = np.array([0.6, 0.4])
    transition = np.array([[0.9, 0.1], [0.2, 0.8]])
    return BNInferenceContext.from_structure(
        np.array([-1, 0]), [prior, transition]
    )


def _star_context():
    """root with two children."""
    prior = np.array([0.5, 0.5])
    child = np.array([[0.7, 0.3], [0.4, 0.6]])
    return BNInferenceContext.from_structure(
        np.array([-1, 0, 0]), [prior, child, child.copy()]
    )


def _columns(vectors):
    """One query's per-node evidence vectors as ``(bins, 1)`` matrices."""
    return [np.asarray(vec, dtype=np.float64)[:, None] for vec in vectors]


def _selectivity(context, vectors):
    return float(context.selectivities(_columns(vectors))[0])


def _marginal(context, node, vectors):
    beliefs, _probabilities = context.beliefs(_columns(vectors))
    return beliefs[node][:, 0]


class TestConstruction:
    def test_root_identified(self):
        context = _chain_context()
        assert context.root == 0
        assert list(context.order) == [0, 1]

    def test_multiple_roots_rejected(self):
        with pytest.raises(ModelError):
            BNInferenceContext.from_structure(
                np.array([-1, -1]), [np.array([1.0]), np.array([1.0])]
            )

    def test_cycle_rejected(self):
        with pytest.raises(ModelError):
            BNInferenceContext.from_structure(
                np.array([1, 0]), [np.ones((2, 2)) / 2, np.ones((2, 2)) / 2]
            )

    def test_cpd_count_mismatch(self):
        with pytest.raises(ModelError):
            BNInferenceContext.from_structure(np.array([-1, 0]), [np.array([1.0])])

    def test_root_cpd_must_be_1d(self):
        with pytest.raises(ModelError):
            BNInferenceContext.from_structure(
                np.array([-1]), [np.ones((2, 2)) / 2]
            )

    def test_cpd_rows_must_match_parent_bins(self):
        with pytest.raises(ModelError):
            BNInferenceContext.from_structure(
                np.array([-1, 0]), [np.array([0.5, 0.5]), np.ones((3, 2)) / 2]
            )

    def test_arrays_frozen(self):
        context = _chain_context()
        with pytest.raises(ValueError):
            context.cpds[0][0] = 0.5

    def test_prior_is_the_no_evidence_sweep(self):
        context = _star_context()
        beliefs, probabilities = context.beliefs(
            [np.ones((2, 1)) for _ in range(3)]
        )
        prior, probability = context.prior
        assert probability == probabilities[0]
        for vector, matrix in zip(prior, beliefs):
            assert np.array_equal(vector, matrix[:, 0])
            assert not vector.flags.writeable


class TestSelectivity:
    def test_no_evidence_is_one(self):
        context = _chain_context()
        assert _selectivity(context, [np.ones(2), np.ones(2)]) == pytest.approx(1.0)

    def test_root_marginal(self):
        context = _chain_context()
        evidence = [np.array([1.0, 0.0]), np.ones(2)]
        assert _selectivity(context, evidence) == pytest.approx(0.6)

    def test_child_marginal(self):
        context = _chain_context()
        evidence = [np.ones(2), np.array([1.0, 0.0])]
        # P(x1=0) = 0.6*0.9 + 0.4*0.2 = 0.62
        assert _selectivity(context, evidence) == pytest.approx(0.62)

    def test_joint(self):
        context = _chain_context()
        evidence = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        # P(x0=1, x1=0) = 0.4 * 0.2
        assert _selectivity(context, evidence) == pytest.approx(0.08)

    def test_star_joint(self):
        context = _star_context()
        evidence = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        # P(r=0) * P(c1=0|r=0) * P(c2=1|r=0) = 0.5 * 0.7 * 0.3
        assert _selectivity(context, evidence) == pytest.approx(0.105)

    def test_fractional_evidence(self):
        context = _chain_context()
        evidence = [np.array([0.5, 0.5]), np.ones(2)]
        assert _selectivity(context, evidence) == pytest.approx(0.5)

    def test_evidence_shape_checked(self):
        context = _chain_context()
        for call in (context.selectivities, context.beliefs):
            with pytest.raises(ModelError):  # wrong bin count
                call([np.ones((3, 1)), np.ones((2, 1))])
            with pytest.raises(ModelError):  # wrong node count
                call([np.ones((2, 1))])
            with pytest.raises(ModelError):  # ragged batch widths
                call([np.ones((2, 3)), np.ones((2, 4))])
            with pytest.raises(ModelError):  # vectors, not (bins, B) matrices
                call([np.ones(2), np.ones(2)])
            with pytest.raises(ModelError):  # empty batch
                call([np.ones((2, 0)), np.ones((2, 0))])

    @given(
        e0=st.floats(0, 1),
        e1=st.floats(0, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_selectivity_bounded(self, e0, e1):
        context = _chain_context()
        evidence = [np.array([e0, 1 - e0]), np.array([e1, 1 - e1])]
        assert 0.0 <= _selectivity(context, evidence) <= 1.0


class TestBeliefs:
    def test_beliefs_sum_to_evidence_probability(self):
        context = _star_context()
        evidence = _columns([np.ones(2), np.array([1.0, 0.0]), np.ones(2)])
        beliefs, probabilities = context.beliefs(evidence)
        for belief in beliefs:
            assert belief[:, 0].sum() == pytest.approx(probabilities[0])

    def test_marginal_with_no_evidence_is_prior(self):
        context = _chain_context()
        marginal = _marginal(context, 0, [np.ones(2), np.ones(2)])
        assert np.allclose(marginal, [0.6, 0.4])

    def test_child_marginal_no_evidence(self):
        context = _chain_context()
        marginal = _marginal(context, 1, [np.ones(2), np.ones(2)])
        assert np.allclose(marginal, [0.62, 0.38])

    def test_conditional_reasoning_through_root(self):
        """Evidence on one child shifts the other child's marginal."""
        context = _star_context()
        free = [np.ones(2), np.ones(2), np.ones(2)]
        clamped = [np.ones(2), np.array([1.0, 0.0]), np.ones(2)]
        free_marginal = _marginal(context, 2, free)
        cond_marginal = _marginal(context, 2, clamped)
        cond_marginal = cond_marginal / cond_marginal.sum()
        free_marginal = free_marginal / free_marginal.sum()
        # Seeing c1=0 makes root=0 likelier, which makes c2=0 likelier.
        assert cond_marginal[0] > free_marginal[0]


class TestConcurrency:
    def test_lock_free_parallel_inference(self):
        """Many threads sweeping concurrently agree bitwise with the
        single-threaded result -- the immutable-context guarantee the
        paper's initContext establishes."""
        context = _tree_context("star_chain", same_bins=True, seed=3)
        rng = np.random.default_rng(8)
        evidence = _random_evidence(rng, context, 4)
        expected_selectivities = context.selectivities(evidence)
        expected_beliefs, _ = context.beliefs(evidence)
        mismatches: list[str] = []
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(100):
                    if not np.array_equal(
                        context.selectivities(evidence), expected_selectivities
                    ):
                        mismatches.append("selectivities")
                    beliefs, _probabilities = context.beliefs(evidence)
                    if not all(
                        np.array_equal(got, want)
                        for got, want in zip(beliefs, expected_beliefs)
                    ):
                        mismatches.append("beliefs")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not mismatches


# ----------------------------------------------------------------------
# The oracle: enumerate the joint
# ----------------------------------------------------------------------
def _brute_force_beliefs(context, evidence):
    """Enumerate the full joint; O(bins^n) reference for tiny networks.

    ``evidence[i]`` is ``(bins_i, B)``; returns per-node ``(bins_i, B)``
    beliefs and the ``(B,)`` evidence probabilities.
    """
    num_nodes = len(context.cpds)
    bins = [cpd.shape[-1] for cpd in context.cpds]
    batch = evidence[0].shape[1]
    beliefs = [np.zeros((b, batch)) for b in bins]
    probability = np.zeros(batch)
    for assignment in np.ndindex(*bins):
        weight = np.full(batch, context.cpds[context.root][assignment[context.root]])
        for node in range(num_nodes):
            parent = context.parents[node]
            if parent >= 0:
                weight = weight * context.cpds[node][assignment[parent], assignment[node]]
            weight = weight * evidence[node][assignment[node]]
        probability += weight
        for node in range(num_nodes):
            beliefs[node][assignment[node]] += weight
    return beliefs, probability


#: parents arrays of the tree shapes under test (7 nodes at most: the
#: oracle enumerates bins^n assignments)
_SHAPES = {
    "single": [-1],
    "chain": [-1, 0, 1, 2, 3],
    "wide_star": [-1, 0, 0, 0, 0, 0],
    # node 0 fans out to 1..3, a chain hangs off node 1 (ragged levels)
    "star_chain": [-1, 0, 0, 0, 1, 4, 1],
    # two internal nodes on one level, each with several children
    "two_fans": [-1, 0, 0, 1, 1, 2, 2],
}


def _tree_context(shape, same_bins, seed):
    """A data-free random tree BN over one of ``_SHAPES`` (or a parents list).

    ``same_bins`` gives every node the same bin count, so same-level
    siblings have identically shaped CPDs -- the case a schedule grouped by
    CPD shape would treat differently from the per-node one.
    """
    rng = np.random.default_rng(seed)
    parents = _SHAPES[shape] if isinstance(shape, str) else shape
    bins = [3 if same_bins else int(rng.integers(2, 5)) for _ in parents]
    cpds = []
    for node, parent in enumerate(parents):
        if parent < 0:
            p = rng.random(bins[node]) + 0.01
            cpds.append(p / p.sum())
        else:
            m = rng.random((bins[parent], bins[node])) + 0.01
            cpds.append(m / m.sum(axis=1, keepdims=True))
    return BNInferenceContext.from_structure(np.asarray(parents), cpds)


def _random_tree_context(rng, same_bins):
    n = int(rng.integers(2, 8))
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    return _tree_context(parents, same_bins, int(rng.integers(1 << 30)))


def _random_evidence(rng, context, batch):
    return [
        np.clip(rng.random((context.bin_count(i), batch)), 0.05, 1.0)
        for i in range(context.num_nodes)
    ]


def _assert_matches_oracle(context, evidence):
    want_beliefs, want_probabilities = _brute_force_beliefs(context, evidence)
    beliefs, probabilities = context.beliefs(evidence)
    np.testing.assert_allclose(probabilities, want_probabilities, rtol=1e-10)
    for got, want in zip(beliefs, want_beliefs):
        np.testing.assert_allclose(got, want, rtol=1e-10)
    np.testing.assert_allclose(
        context.selectivities(evidence), want_probabilities, rtol=1e-10
    )


class TestAgainstEnumeratedJoint:
    @pytest.mark.parametrize("batch", [1, 2, 16])
    @pytest.mark.parametrize("same_bins", [False, True])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_tree_shapes(self, shape, same_bins, batch):
        context = _tree_context(shape, same_bins, seed=5)
        rng = np.random.default_rng(17)
        _assert_matches_oracle(context, _random_evidence(rng, context, batch))

    @pytest.mark.parametrize("same_bins", [False, True])
    def test_random_trees(self, same_bins):
        rng = np.random.default_rng(29)
        for _ in range(12):
            context = _random_tree_context(rng, same_bins)
            batch = int(rng.choice([1, 2, 16]))
            _assert_matches_oracle(context, _random_evidence(rng, context, batch))

    def test_hard_evidence(self):
        """Zero/one masks (what predicates produce), not just soft weights."""
        context = _tree_context("two_fans", same_bins=True, seed=2)
        rng = np.random.default_rng(4)
        evidence = [
            (rng.random((context.bin_count(i), 4)) < 0.6).astype(np.float64)
            for i in range(context.num_nodes)
        ]
        want_beliefs, want_probabilities = _brute_force_beliefs(context, evidence)
        beliefs, probabilities = context.beliefs(evidence)
        np.testing.assert_allclose(
            probabilities, want_probabilities, rtol=1e-10, atol=1e-300
        )
        for got, want in zip(beliefs, want_beliefs):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-300)


class TestWidthInvariance:
    """Equal widths => equal bits; across widths => equal to rounding."""

    @pytest.mark.parametrize("same_bins", [False, True])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_column_equals_its_own_batch_of_one(self, shape, same_bins):
        context = _tree_context(shape, same_bins, seed=11)
        rng = np.random.default_rng(23)
        for batch in (2, 16):
            evidence = _random_evidence(rng, context, batch)
            beliefs, probabilities = context.beliefs(evidence)
            selectivities = context.selectivities(evidence)
            for b in range(batch):
                column = [np.ascontiguousarray(mat[:, b : b + 1]) for mat in evidence]
                one_beliefs, one_probability = context.beliefs(column)
                np.testing.assert_allclose(
                    probabilities[b], one_probability[0], rtol=1e-12
                )
                np.testing.assert_allclose(
                    selectivities[b], context.selectivities(column)[0], rtol=1e-12
                )
                for wide, one in zip(beliefs, one_beliefs):
                    np.testing.assert_allclose(wide[:, b], one[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_equal_widths_are_bitwise_equal(self, batch):
        rng = np.random.default_rng(31)
        for same_bins in (False, True):
            context = _random_tree_context(rng, same_bins)
            evidence = _random_evidence(rng, context, batch)
            first_beliefs, first_probabilities = context.beliefs(evidence)
            again_beliefs, again_probabilities = context.beliefs(
                [mat.copy() for mat in evidence]
            )
            assert np.array_equal(first_probabilities, again_probabilities)
            for first, again in zip(first_beliefs, again_beliefs):
                assert np.array_equal(first, again)

    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_beliefs_probability_equals_selectivity(self, batch):
        """The root-belief total *is* the upward-only selectivity, bitwise
        -- the invariant the shared inference plans rely on."""
        context = _tree_context("wide_star", same_bins=False, seed=7)
        rng = np.random.default_rng(37)
        evidence = _random_evidence(rng, context, batch)
        _beliefs, probabilities = context.beliefs(evidence)
        assert np.array_equal(probabilities, context.selectivities(evidence))


class TestEvidenceNotMutated:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_sweeps_never_write_through(self, rng, batch):
        """Leaves alias their evidence in the upward pass; neither sweep
        may write through to the caller's matrices."""
        context = _tree_context("star_chain", same_bins=False, seed=13)
        evidence = _random_evidence(rng, context, batch)
        originals = [mat.copy() for mat in evidence]
        context.selectivities(evidence)
        context.beliefs(evidence)
        for mat, original in zip(evidence, originals):
            assert np.array_equal(mat, original)

    def test_read_only_evidence_accepted(self, rng):
        context = _tree_context("two_fans", same_bins=True, seed=19)
        evidence = _random_evidence(rng, context, 2)
        for mat in evidence:
            mat.setflags(write=False)
        context.selectivities(evidence)
        context.beliefs(evidence)

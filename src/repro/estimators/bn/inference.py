"""Sum-product inference over an immutable, compiled context.

:class:`BNInferenceContext` is the reproduction of the paper's
``initContext`` output for the single-table model: the tree with its CPDs is
flattened into topologically-indexed, read-only arrays ("Root
Identification" and "CPD Indexing" in Section 5.1) and a per-node sweep
schedule, after which :meth:`~BNInferenceContext.selectivities` and
:meth:`~BNInferenceContext.beliefs` mutate nothing shared and can be called
concurrently from many query threads without locking.

Inference is the standard two-pass sum-product on a tree:

* upward pass (leaves to root): each node sends
  ``m_i(p) = sum_c P(c | p) * e_i(c) * prod_j m_j(c)`` to its parent;
* downward pass (root to leaves) for per-node beliefs
  ``b_i(c) = P(i = c, evidence)``.

The probability of the evidence -- the query's selectivity -- is the root's
belief total.

Evidence is always a ``(bins, B)`` matrix per node, one column per query, so
messages are matrix products and the Python dispatch of the sweep is paid
once per batch; a single query is ``B = 1``.  Sibling messages of the
downward pass are combined with prefix/suffix running products, keeping it
linear in the number of children.  Every product consumes the same operands
in the same order whatever ``B`` is, so two sweeps of equal width over equal
evidence are bitwise equal; across widths BLAS may block the GEMMs
differently and results agree to rounding (``rtol=1e-12``).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.errors import ModelError

#: process-wide, because one cache may serve contexts of many estimators
_TOKENS = itertools.count(1)


class BNInferenceContext:
    """Frozen, topologically-indexed tree BN compiled for lock-free sweeps."""

    def __init__(
        self,
        order: np.ndarray,
        parents: np.ndarray,
        children: tuple[tuple[int, ...], ...],
        cpds: tuple[np.ndarray, ...],
    ):
        #: never reused across contexts: caches of values derived from this
        #: model (evidence masks, plan beliefs) put it in their keys, so an
        #: entry built from a replaced model can never match again
        self.token = next(_TOKENS)
        self.order = order
        self.parents = parents
        self.children = children
        self.cpds = cpds
        self.num_nodes = parents.size
        self.root = int(order[0])
        #: bins per node (a CPD's last axis)
        self.bins = tuple(int(cpd.shape[-1]) for cpd in cpds)
        for array in (self.order, self.parents, *self.cpds):
            array.setflags(write=False)
        # The sweep schedule, one entry per node.  Upward, leaves first:
        # (node, its children, its CPD -- None for the root, which sends no
        # message).  Downward, root first: (parent, its (child, CPD^T)
        # pairs).  The transpose stays a *view*: a contiguous transposed
        # copy makes BLAS pick another kernel and changes the low bits.
        nodes = [int(node) for node in order]
        self._upward = tuple(
            (node, children[node], None if node == self.root else cpds[node])
            for node in reversed(nodes)
        )
        self._downward = tuple(
            (node, tuple((child, cpds[child].T) for child in children[node]))
            for node in nodes
            if children[node]
        )
        #: ``(C, 1)`` root CPD column; broadcasts over the batch
        self._root_column = cpds[self.root][:, None]
        # Beliefs under no evidence are a pure function of the model, so
        # they are swept once here and served to every unfiltered scope.
        beliefs, probabilities = self.beliefs(
            [np.ones((bins, 1)) for bins in self.bins]
        )
        prior = tuple(np.ascontiguousarray(matrix[:, 0]) for matrix in beliefs)
        for vector in prior:
            vector.setflags(write=False)
        #: per-node ``P(node = c)`` vectors and their (root) total
        self.prior: tuple[tuple[np.ndarray, ...], float] = (
            prior,
            float(probabilities[0]),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_structure(
        cls, parents: np.ndarray, cpds: Sequence[np.ndarray]
    ) -> "BNInferenceContext":
        """Build the context: root identification + topological CPD indexing."""
        parents = np.asarray(parents, dtype=np.int64)
        d = parents.size
        if len(cpds) != d:
            raise ModelError(f"{d} nodes but {len(cpds)} CPDs")
        roots = np.flatnonzero(parents < 0)
        if roots.size != 1:
            raise ModelError(f"tree must have exactly one root, found {roots.size}")
        children_lists: list[list[int]] = [[] for _ in range(d)]
        for node in range(d):
            parent = int(parents[node])
            if parent >= 0:
                if not 0 <= parent < d:
                    raise ModelError(f"node {node} has out-of-range parent {parent}")
                children_lists[parent].append(node)
        # Topological order by BFS from the root; also validates acyclicity.
        order: list[int] = [int(roots[0])]
        cursor = 0
        while cursor < len(order):
            order.extend(children_lists[order[cursor]])
            cursor += 1
        if len(order) != d:
            raise ModelError("structure is cyclic or disconnected")
        frozen_cpds = tuple(np.ascontiguousarray(c, dtype=np.float64) for c in cpds)
        for node in range(d):
            parent = int(parents[node])
            cpd = frozen_cpds[node]
            if parent < 0 and cpd.ndim != 1:
                raise ModelError("root CPD must be 1-D")
            if parent >= 0 and (
                cpd.ndim != 2 or cpd.shape[0] != frozen_cpds[parent].shape[-1]
            ):
                raise ModelError(
                    f"node {node} CPD must be 2-D with one row per parent bin"
                )
        return cls(
            order=np.asarray(order, dtype=np.int64),
            parents=parents.copy(),
            children=tuple(tuple(c) for c in children_lists),
            cpds=frozen_cpds,
        )

    # ------------------------------------------------------------------
    def bin_count(self, node: int) -> int:
        return self.bins[node]

    def _check_evidence(self, evidence: Sequence[np.ndarray]) -> None:
        if len(evidence) != self.num_nodes:
            raise ModelError(
                f"expected {self.num_nodes} evidence matrices, got {len(evidence)}"
            )
        batch = evidence[0].shape[-1]
        shapes = [matrix.shape for matrix in evidence]
        if batch < 1 or shapes != [(bins, batch) for bins in self.bins]:
            raise ModelError(
                f"evidence shapes {shapes} are not (bins, B >= 1) matrices "
                f"over bins {list(self.bins)}"
            )

    # ------------------------------------------------------------------
    def _upward_pass(
        self, evidence: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
        """Leaves-to-root pass: local factors and messages per node.

        ``local[i]`` is ``e_i * prod_j m_j`` over ``i``'s own bins and
        ``messages[i]`` is node ``i``'s message over its *parent's* bins
        (``None`` for the root).  Childless nodes alias their evidence --
        nothing downstream writes into a local factor -- and a parent's
        first child message allocates the product fresh, so the caller's
        evidence is never written.
        """
        local: list[np.ndarray] = list(evidence)
        messages: list[np.ndarray | None] = [None] * self.num_nodes
        for node, kids, cpd in self._upward:
            if kids:
                combined = evidence[node] * messages[kids[0]]
                for child in kids[1:]:
                    combined *= messages[child]
                local[node] = combined
            if cpd is not None:
                messages[node] = cpd @ local[node]
        return local, messages

    def selectivities(self, evidence: Sequence[np.ndarray]) -> np.ndarray:
        """``(B,)`` evidence probabilities from the upward pass alone.

        ``evidence[i]`` has shape ``(bins_i, B)``: one column per query.
        Bitwise equal to the probabilities :meth:`beliefs` returns for the
        same evidence; callers that need no per-node beliefs skip the
        downward pass.
        """
        self._check_evidence(evidence)
        local, _messages = self._upward_pass(evidence)
        root_belief = self._root_column * local[self.root]
        return np.clip(root_belief.sum(axis=0), 0.0, 1.0)

    def beliefs(
        self, evidence: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-node joint matrices plus the ``(B,)`` P(evidence) vector.

        Entry ``i`` of the result has ``evidence[i]``'s shape; its column
        ``b`` holds ``P(i = c, evidence column b)`` for every bin ``c``.
        """
        self._check_evidence(evidence)
        local, messages = self._upward_pass(evidence)
        down: list[np.ndarray | None] = [None] * self.num_nodes
        beliefs: list[np.ndarray] = [np.empty(0)] * self.num_nodes
        down[self.root] = self._root_column
        beliefs[self.root] = self._root_column * local[self.root]
        for node, kids in self._downward:
            # Everything at the node except each child's own message.
            base = down[node] * evidence[node]
            # suffixes[r] = product of the messages of children r+1.., so a
            # node with k children costs O(k) multiplies, not O(k^2).
            suffixes: list[np.ndarray | None] = [None] * len(kids)
            running: np.ndarray | None = None
            for rank in range(len(kids) - 1, 0, -1):
                message = messages[kids[rank][0]]
                running = message if running is None else running * message
                suffixes[rank - 1] = running
            prefix: np.ndarray | None = None
            for (child, cpd_t), suffix in zip(kids, suffixes):
                context = base if prefix is None else base * prefix
                if suffix is not None:
                    context = context * suffix
                message = messages[child]
                prefix = message if prefix is None else prefix * message
                down[child] = cpd_t @ context
                beliefs[child] = down[child] * local[child]
        probabilities = np.clip(beliefs[self.root].sum(axis=0), 0.0, 1.0)
        return beliefs, probabilities

"""The :class:`Graph` container used by every algorithm in the library.

A :class:`Graph` bundles a symmetric sparse adjacency matrix ``W`` with an
optional full ground-truth label vector and exposes the matrices the paper's
algorithms need (degree matrix ``D``, explicit-belief matrix ``X`` from a
partial labeling, one-hot label matrix, ...).  The adjacency is stored in CSR
format so the ``W @ (n x k)`` products that dominate both propagation and the
factorized path summation run at scipy's native sparse-dense speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.matrix import degree_matrix, degree_vector, rows_over, to_csr
from repro.utils.validation import check_adjacency, check_labels

__all__ = ["Graph", "one_hot_labels", "labels_from_one_hot"]


def one_hot_labels(labels: np.ndarray, n_classes: int) -> sp.csr_matrix:
    """Convert a label vector into the sparse explicit-belief matrix ``X``.

    Unlabeled nodes (label ``-1``) get an all-zero row, matching the paper's
    convention that only labeled seed nodes carry prior information.
    """
    labels = check_labels(labels, n_classes=n_classes)
    n_nodes = labels.shape[0]
    labeled = np.flatnonzero(labels >= 0)
    data = np.ones(labeled.shape[0], dtype=np.float64)
    return sp.csr_matrix(
        (data, (labeled, labels[labeled])), shape=(n_nodes, n_classes)
    )


def labels_from_one_hot(beliefs: np.ndarray) -> np.ndarray:
    """Assign each node the class with maximum belief (``argmax`` per row).

    Rows that are entirely zero (no information reached the node) are labeled
    ``-1`` so callers can decide how to break the tie; the experiment harness
    counts them as incorrect, which matches the paper's accuracy definition.
    """
    beliefs = np.asarray(beliefs, dtype=np.float64)
    predicted = np.argmax(beliefs, axis=1).astype(np.int64, copy=False)
    # A row carries no information iff every entry is exactly zero.
    predicted[~rows_over(beliefs, 0.0)] = -1
    return predicted


@dataclass
class Graph:
    """Undirected weighted graph with an optional ground-truth labeling.

    Parameters
    ----------
    adjacency:
        Symmetric ``n x n`` weighted adjacency matrix (dense or sparse).
    labels:
        Optional ground-truth label per node, values in ``0..k-1``
        (``-1`` marks a node with unknown ground truth).
    n_classes:
        Number of classes ``k``.  Inferred from ``labels`` when omitted.
    name:
        Optional human-readable name (used by the dataset registry).
    """

    adjacency: sp.csr_matrix
    labels: np.ndarray | None = None
    n_classes: int | None = None
    name: str = "graph"

    def __post_init__(self) -> None:
        self.adjacency = check_adjacency(self.adjacency)
        if self.labels is not None:
            self.labels = check_labels(self.labels, n_nodes=self.adjacency.shape[0])
            if self.n_classes is None:
                self.n_classes = int(self.labels.max()) + 1
            check_labels(self.labels, n_classes=self.n_classes)
        if self.n_classes is not None and self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")

    # ------------------------------------------------------------------ sizes
    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges ``m`` (each pair and each self-loop once)."""
        loops = np.count_nonzero(self.adjacency.diagonal())
        return int((self.adjacency.nnz - loops) // 2 + loops)

    @property
    def average_degree(self) -> float:
        """Average node degree ``d = 2m / n``."""
        if self.n_nodes == 0:
            return 0.0
        return 2.0 * self.n_edges / self.n_nodes

    # --------------------------------------------------------------- matrices
    @property
    def operators(self) -> "GraphOperators":
        """Memoized derived operators (normalizations, spectral radius).

        The :class:`~repro.graph.operators.GraphOperators` instance is built
        lazily and rebuilt whenever :attr:`adjacency` is replaced with a new
        object, so repeated propagation calls on the same graph reuse the
        cached normalizations and the expensive spectral-radius estimate.
        """
        from repro.graph.operators import GraphOperators

        cached = self.__dict__.get("_operators")
        if cached is None or cached.adjacency is not self.adjacency:
            cached = GraphOperators(self.adjacency)
            self.__dict__["_operators"] = cached
        return cached

    def invalidate_operators(self) -> None:
        """Drop the cached :class:`GraphOperators` instance.

        The :attr:`operators` cache keys on the *identity* of the adjacency
        object, so replacing ``graph.adjacency`` invalidates it naturally —
        but mutating the CSR arrays in place (``adjacency.data[...] = ...``)
        does not, and the cache would silently keep serving normalizations
        and the spectral radius of the old weights.  Call this after any
        in-place mutation; the delta-application path of
        :mod:`repro.stream` does so on every applied delta.
        """
        self.__dict__.pop("_operators", None)

    def set_operators(self, operators: "GraphOperators") -> None:
        """Install a pre-built operator cache for this graph's adjacency.

        The streaming layer evolves the previous delta's
        :class:`GraphOperators` (carrying incrementally updated degrees and
        a warm spectral-radius estimate) and installs it here so that
        ``graph.operators`` serves the primed instance instead of
        recomputing everything from scratch.
        """
        if operators.adjacency is not self.adjacency:
            raise ValueError(
                "operators were built for a different adjacency object; "
                "assign graph.adjacency first"
            )
        self.__dict__["_operators"] = operators

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each node."""
        return degree_vector(self.adjacency)

    @property
    def degree_matrix(self) -> sp.csr_matrix:
        """Diagonal degree matrix ``D``."""
        return degree_matrix(self.adjacency)

    def label_matrix(self, labels: np.ndarray | None = None) -> sp.csr_matrix:
        """One-hot ``n x k`` explicit-belief matrix ``X`` for a labeling.

        Uses the graph's ground-truth labels when ``labels`` is omitted.
        """
        if labels is None:
            labels = self.require_labels()
        if self.n_classes is None:
            raise ValueError("n_classes is unknown; construct the Graph with labels")
        return one_hot_labels(labels, self.n_classes)

    def partial_label_matrix(self, seed_indices: np.ndarray) -> sp.csr_matrix:
        """Explicit-belief matrix ``X`` with only ``seed_indices`` labeled."""
        labels = self.require_labels()
        partial = np.full(self.n_nodes, -1, dtype=np.int64)
        seed_indices = np.asarray(seed_indices, dtype=np.int64)
        partial[seed_indices] = labels[seed_indices]
        return self.label_matrix(partial)

    def partial_labels(self, seed_indices: np.ndarray) -> np.ndarray:
        """Label vector with only ``seed_indices`` revealed (others ``-1``)."""
        labels = self.require_labels()
        partial = np.full(self.n_nodes, -1, dtype=np.int64)
        seed_indices = np.asarray(seed_indices, dtype=np.int64)
        partial[seed_indices] = labels[seed_indices]
        return partial

    def require_labels(self) -> np.ndarray:
        """Return the ground-truth labels or raise a clear error."""
        if self.labels is None:
            raise ValueError(f"graph {self.name!r} carries no ground-truth labels")
        return self.labels

    # ------------------------------------------------------------- structure
    def neighbors(self, node: int) -> np.ndarray:
        """Indices of the neighbors of ``node``."""
        start, end = self.adjacency.indptr[node], self.adjacency.indptr[node + 1]
        return self.adjacency.indices[start:end]

    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Node-induced subgraph, relabeling nodes to ``0..len(nodes)-1``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sub_adjacency = self.adjacency[nodes][:, nodes]
        sub_labels = None if self.labels is None else self.labels[nodes]
        return Graph(
            adjacency=sub_adjacency,
            labels=sub_labels,
            n_classes=self.n_classes,
            name=f"{self.name}/subgraph",
        )

    def largest_connected_component(self) -> "Graph":
        """Return the subgraph induced by the largest connected component."""
        n_components, assignment = sp.csgraph.connected_components(
            self.adjacency, directed=False
        )
        if n_components <= 1:
            return self
        sizes = np.bincount(assignment)
        keep = np.flatnonzero(assignment == np.argmax(sizes))
        return self.subgraph(keep)

    def class_counts(self) -> np.ndarray:
        """Number of ground-truth nodes per class."""
        labels = self.require_labels()
        if self.n_classes is None:
            raise ValueError("n_classes is unknown")
        counts = np.bincount(labels[labels >= 0], minlength=self.n_classes)
        return counts

    def class_prior(self) -> np.ndarray:
        """Fraction of nodes per class (the paper's label distribution alpha)."""
        counts = self.class_counts().astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    # ------------------------------------------------------------- factories
    @classmethod
    def from_edges(
        cls,
        edges,
        n_nodes: int | None = None,
        labels=None,
        n_classes: int | None = None,
        weights=None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` edge pairs.

        Edges are symmetrized and duplicate edges have their weights summed.
        Self-loops are dropped, matching the paper's simple-graph setting.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be an iterable of pairs, got shape {edges.shape}")
        edges = edges.astype(np.int64)
        not_loop = edges[:, 0] != edges[:, 1]
        edges = edges[not_loop]
        if weights is None:
            edge_weights = np.ones(edges.shape[0], dtype=np.float64)
        else:
            edge_weights = np.asarray(weights, dtype=np.float64)[not_loop]
        if n_nodes is None:
            n_nodes = int(edges.max()) + 1 if edges.size else 0
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.concatenate([edge_weights, edge_weights])
        adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes))
        adjacency.sum_duplicates()
        # Duplicate undirected edges would have doubled; clamp binary graphs back.
        if weights is None:
            adjacency.data = np.minimum(adjacency.data, 1.0)
        return cls(adjacency=adjacency, labels=labels, n_classes=n_classes, name=name)

    @classmethod
    def from_dense(cls, dense, labels=None, n_classes=None, name="graph") -> "Graph":
        """Build a graph from a dense adjacency matrix."""
        return cls(adjacency=to_csr(dense), labels=labels, n_classes=n_classes, name=name)

    def edge_list(self) -> np.ndarray:
        """Return the ``m x 2`` array of undirected edges with ``u < v``."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        return Graph(
            adjacency=self.adjacency.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            n_classes=self.n_classes,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Graph(name={self.name!r}, n={self.n_nodes}, m={self.n_edges}, "
            f"k={self.n_classes})"
        )

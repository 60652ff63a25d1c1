"""Non-backtracking path counting (Sections 4.5 and 4.6).

A path is non-backtracking (NB) if it never traverses the same edge twice in
a row.  The paper's key computational insight (Proposition 4.3) is that the
``n x n`` matrices ``W_NB^(l)`` counting NB paths of length ``l`` obey the
three-term recurrence

    ``W_NB^(l) = W W_NB^(l-1) - (D - I) W_NB^(l-2)``

with ``W_NB^(1) = W`` and ``W_NB^(2) = W^2 - D``, so no 2m x 2m Hashimoto
matrix is needed.  Crucially, the recurrence can be pushed through the thin
``n x k`` label matrix ``X`` (Algorithm 4.4), keeping every intermediate
result ``n x k`` instead of ``n x n``; that is the "factorized graph
representation" that gives the paper its name and its O(m k l_max) bound
(Proposition 4.5).

This module provides both routes — the explicit (expensive) matrices for
validation and the factorized summation for production use — plus the
Hashimoto matrix as an independent cross-check used by the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.matrix import degree_vector, frontier_product, to_csr, to_dense
from repro.utils.validation import check_positive

__all__ = [
    "explicit_nb_walk_matrices",
    "explicit_walk_matrices",
    "factorized_nb_counts",
    "factorized_walk_counts",
    "hashimoto_matrix",
    "nb_counts_via_hashimoto",
]


def explicit_walk_matrices(adjacency, max_length: int) -> list[sp.csr_matrix]:
    """All plain walk-count matrices ``W^l`` for ``l = 1 .. max_length``.

    This is the naive strategy the paper benchmarks against in Fig. 5b: the
    intermediate powers densify quickly (``~ d^(l-1) m`` non-zeros), so only
    use it on small graphs or small ``l``.
    """
    check_positive(max_length, "max_length")
    adjacency = to_csr(adjacency)
    powers = [adjacency]
    for _ in range(1, max_length):
        powers.append((adjacency @ powers[-1]).tocsr())
    return powers


def explicit_nb_walk_matrices(adjacency, max_length: int) -> list[sp.csr_matrix]:
    """All NB walk-count matrices ``W_NB^(l)`` via the recurrence of Prop. 4.3.

    Returned as a list indexed ``[l-1]`` for path length ``l``.  Like
    :func:`explicit_walk_matrices` this materializes ``n x n`` intermediates
    and exists for validation and the Fig. 5 experiments, not for scale.
    """
    check_positive(max_length, "max_length")
    adjacency = to_csr(adjacency)
    degrees = degree_vector(adjacency)
    degree_diag = sp.diags(degrees, format="csr")
    matrices: list[sp.csr_matrix] = [adjacency]
    if max_length >= 2:
        matrices.append((adjacency @ adjacency - degree_diag).tocsr())
    degree_minus_identity = sp.diags(degrees - 1.0, format="csr")
    for _ in range(3, max_length + 1):
        nxt = adjacency @ matrices[-1] - degree_minus_identity @ matrices[-2]
        matrices.append(nxt.tocsr())
    return matrices[:max_length]


def factorized_walk_counts(adjacency, labels_matrix, max_length: int) -> list[np.ndarray]:
    """Plain-path label counts ``N^(l) = W^l X`` without forming ``W^l``.

    Evaluates ``W (W (... (W X)))`` right-to-left so every intermediate stays
    ``n x k`` (the query-optimization analogy of footnote 5 in the paper).
    Each product is a :func:`~repro.utils.matrix.frontier_product` over the
    rows reached so far.  Returns dense ``n x k`` arrays for ``l = 1 ..
    max_length``.
    """
    check_positive(max_length, "max_length")
    adjacency = to_csr(adjacency)
    current = to_dense(labels_matrix)
    support = current.any(axis=1)
    counts = []
    for _ in range(max_length):
        current, support = frontier_product(adjacency, current, support)
        counts.append(current)
    return counts


def factorized_nb_counts(adjacency, labels_matrix, max_length: int) -> list[np.ndarray]:
    """NB label counts ``N_NB^(l) = W_NB^(l) X`` via Algorithm 4.4.

    The recurrence of Proposition 4.3 is applied directly to the thin
    ``n x k`` matrices:

    * ``N^(1) = W X``
    * ``N^(2) = W N^(1) - D X``
    * ``N^(l) = W N^(l-1) - (D - I) N^(l-2)`` for ``l >= 3``

    Total cost O(m k max_length); this is the scalable production path.
    ``N^(l)`` is zero off the ``l``-hop ball of the labeled rows, so each
    ``W`` product is a :func:`~repro.utils.matrix.frontier_product` over it
    (100k nodes, 1M edges, 100 seeds, one core of a 2-CPU VM: 0.7 and 1.7 ms
    for the first two hops against 15-20 ms for a full product).
    """
    check_positive(max_length, "max_length")
    adjacency = to_csr(adjacency)
    return _nb_counts(adjacency, to_dense(labels_matrix), degree_vector(adjacency), max_length)


def _nb_counts(adjacency, dense_labels, degrees, max_length: int) -> list[np.ndarray]:
    """:func:`factorized_nb_counts` on validated inputs and known degrees."""
    # counts[l] = N^(l) with N^(0) = X; supports[l] bounds its non-zero rows
    # (the reach of W N^(l-1) plus the support of N^(l-2)), None once spread.
    counts = [dense_labels]
    supports = [dense_labels.any(axis=1)]
    for length in range(1, max_length + 1):
        count, reach = frontier_product(adjacency, counts[-1], supports[-1])
        if length > 1:
            count = count - (degrees - float(length > 2))[:, None] * counts[-2]
            reach = None if reach is None or supports[-2] is None else reach | supports[-2]
        counts.append(count)
        supports.append(reach)
    return counts[1:]


def hashimoto_matrix(adjacency) -> tuple[sp.csr_matrix, np.ndarray]:
    """The ``2m x 2m`` non-backtracking (Hashimoto) edge adjacency matrix.

    State ``(u -> v)`` connects to state ``(v -> w)`` whenever ``w != u``.
    Returned together with the ``2m x 2`` array of directed edges so callers
    can map edge states back to node pairs.  Used only as an independent
    reference implementation in tests (the paper's point is precisely that
    this matrix is *not* needed).
    """
    adjacency = to_csr(adjacency)
    coo = adjacency.tocoo()
    directed_edges = np.column_stack([coo.row, coo.col])
    n_states = directed_edges.shape[0]
    # Index directed edges by their source node for fast successor lookup.
    order = np.argsort(directed_edges[:, 0], kind="stable")
    sorted_sources = directed_edges[order, 0]
    boundaries = np.searchsorted(sorted_sources, np.arange(adjacency.shape[0] + 1))
    rows, cols = [], []
    for state_index, (source, target) in enumerate(directed_edges):
        start, end = boundaries[target], boundaries[target + 1]
        for position in range(start, end):
            successor = order[position]
            if directed_edges[successor, 1] == source:
                continue  # backtracking transition
            rows.append(state_index)
            cols.append(successor)
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n_states, n_states))
    return matrix, directed_edges


def nb_counts_via_hashimoto(adjacency, max_length: int) -> list[np.ndarray]:
    """Dense NB path-count matrices computed through the Hashimoto matrix.

    Only feasible for tiny graphs; exists so tests can confirm the recurrence
    of Proposition 4.3 against a completely independent construction.
    """
    check_positive(max_length, "max_length")
    adjacency = to_csr(adjacency)
    n_nodes = adjacency.shape[0]
    hashimoto, directed_edges = hashimoto_matrix(adjacency)
    results = [np.asarray(adjacency.toarray())]
    if max_length == 1:
        return results
    # state_vector[s] follows paths whose first edge is directed edge s.
    state_indicator = sp.identity(directed_edges.shape[0], format="csr")
    current_states = state_indicator
    for _ in range(2, max_length + 1):
        current_states = current_states @ hashimoto
        counts = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        dense_states = np.asarray(current_states.todense())
        sources = directed_edges[:, 0]
        targets = directed_edges[:, 1]
        for start_state in range(directed_edges.shape[0]):
            start_node = sources[start_state]
            # Paths beginning with this directed edge end at the target node
            # of whichever state they currently occupy.
            np.add.at(counts[start_node], targets, dense_states[start_state])
        results.append(counts)
    return results

"""Factorized graph statistics: the small ``k x k`` summaries (Section 4.3/4.4).

These functions turn a (partially) labeled graph into the compact matrices
the estimators optimize against:

* ``M = X^T W X`` — observed neighbor label counts (MCE, Section 4.3),
  computed from scratch or kept exact across graph deltas,
* ``M^(l) = X^T W^(l) X`` and its non-backtracking variant
  ``M_NB^(l) = X^T W_NB^(l) X`` — distance-``l`` label counts (DCE,
  Section 4.4/4.5), computed through the factorized summation of
  Algorithm 4.4 so the graph is touched only O(l_max) times,
* the three normalization variants of Eq. 9-11 that map counts ``M`` to the
  observed statistics matrices ``P̂``.

Everything returned here is dense and ``k x k`` — the "graph sketch" whose
size is independent of the graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.nonbacktracking import _nb_counts, factorized_walk_counts
from repro.graph.graph import Graph, one_hot_labels
from repro.utils.matrix import (
    degree_vector,
    nearest_doubly_stochastic,
    row_normalize,
    scale_normalize,
    symmetric_normalize,
    to_csr,
    to_dense,
)
from repro.utils.validation import check_positive

__all__ = [
    "neighbor_statistics",
    "update_neighbor_statistics",
    "path_statistics",
    "normalize_statistics",
    "observed_statistics",
    "gold_standard_compatibility",
    "NORMALIZATION_VARIANTS",
]

NORMALIZATION_VARIANTS = (1, 2, 3)
"""Valid values for the ``variant`` argument (paper Eq. 9, 10, 11)."""


def neighbor_statistics(adjacency, labels_matrix) -> np.ndarray:
    """Observed neighbor label counts ``M = X^T W X`` (a ``k x k`` matrix).

    ``M[c, d]`` counts (weighted) edges whose endpoints are labeled ``c`` and
    ``d`` among the *labeled* nodes only, exactly the "myopic" statistic of
    Section 4.3.
    """
    adjacency = to_csr(adjacency)
    dense_labels = to_dense(labels_matrix)
    propagated = np.asarray(adjacency @ dense_labels)
    return dense_labels.T @ propagated


def update_neighbor_statistics(
    counts: np.ndarray,
    change,
    adjacency,
    old_labels: np.ndarray,
    new_labels: np.ndarray,
) -> None:
    """Advance ``M = X^T W X`` in place across one graph delta.

    ``change`` is the applied edge change ``ΔW`` (sparse; duplicates sum),
    ``adjacency`` is ``W' = W + ΔW``, and the integer label vectors
    (``-1`` = unlabeled) cover all of ``W'``, with nodes the delta appended
    padded as ``-1`` in ``old_labels``.  With ``Δ = X' - X``::

        M' - M = X^T ΔW X + Δ^T W' X' + (Δ^T W' X)^T

    The last two terms read the ``W'`` rows of the relabeled nodes
    (``W'`` is symmetric), and everything lands in one ``np.bincount``.
    """
    k = counts.shape[0]
    change = change.tocoo()
    rows, cols = change.row, change.col
    old_rows, old_cols = old_labels[rows], old_labels[cols]
    both = (old_rows >= 0) & (old_cols >= 0)
    keys = [old_rows[both] * k + old_cols[both]]
    amounts = [change.data[both]]

    changed = np.flatnonzero(old_labels != new_labels)
    if changed.shape[0]:
        adjacency = to_csr(adjacency)
        starts = adjacency.indptr[changed]
        lengths = adjacency.indptr[changed + 1] - starts
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        positions = offsets + np.arange(offsets.shape[0])
        neighbors = adjacency.indices[positions]
        weights = adjacency.data[positions]
        # Δ row of a changed node r: +e(new[r]) - e(old[r]), each present
        # only when that label is a class (not -1).
        node_old = np.repeat(old_labels[changed], lengths)
        node_new = np.repeat(new_labels[changed], lengths)
        neighbor_old = old_labels[neighbors]
        neighbor_new = new_labels[neighbors]
        for row_labels, col_labels, sign in (
            (node_new, neighbor_new, 1.0),    # Δ^T W' X'
            (node_old, neighbor_new, -1.0),
            (neighbor_old, node_new, 1.0),    # (Δ^T W' X)^T
            (neighbor_old, node_old, -1.0),
        ):
            mask = (row_labels >= 0) & (col_labels >= 0)
            keys.append(row_labels[mask] * k + col_labels[mask])
            amounts.append(sign * weights[mask])

    counts += np.bincount(
        np.concatenate(keys), weights=np.concatenate(amounts), minlength=k * k
    ).reshape(k, k)


def path_statistics(
    adjacency,
    labels_matrix,
    max_length: int,
    non_backtracking: bool = True,
) -> list[np.ndarray]:
    """Distance-``l`` label count matrices ``M^(l)`` for ``l = 1 .. max_length``.

    Uses the factorized summation (Algorithm 4.4): intermediates stay
    ``n x k`` and the total cost is O(m k max_length).  With
    ``non_backtracking=True`` (the paper's recommendation) the counts exclude
    paths that immediately reverse an edge, which Theorem 4.1 shows is what
    makes the normalized statistics a consistent estimator of ``H^l``.

    ``W`` is symmetric, so the sketches fold at the midpoint and only
    ``max(2, max_length - 2)`` products with ``W`` run.  With
    ``X^T W = N_1^T`` and ``N_1^T W = (N_2 + D X)^T``:

    * ``M_NB^(3) = N_1^T N_2 - X^T (D - I) N_1``,
    * ``M_NB^(l) = (N_2 + X)^T N_(l-2) - N_1^T (D - I) N_(l-3)`` for ``l >= 4``,
    * plain walks: ``X^T W^(a+b) X = N_a^T N_b``.

    At ``max_length = 5`` that is 3 products instead of 5, the first two on
    the seed frontier; each fold is O(n k^2).  Integer counts are exact, so
    they equal the unfolded sums bit for bit.
    """
    check_positive(max_length, "max_length")
    adjacency = to_csr(adjacency)
    dense_labels = to_dense(labels_matrix)
    hops = max_length if max_length <= 2 else max(2, max_length - 2)
    if non_backtracking:
        degrees = degree_vector(adjacency)
        counts = _nb_counts(adjacency, dense_labels, degrees, hops)
    else:
        counts = factorized_walk_counts(adjacency, dense_labels, hops)
    counts = [dense_labels, *counts]
    sketches = [dense_labels.T @ count for count in counts[1:]]
    for length in range(hops + 1, max_length + 1):
        x, first, second = counts[:3]
        if not non_backtracking:
            sketches.append(counts[length - hops].T @ counts[hops])
        elif length == 3:
            sketches.append(first.T @ second - x.T @ ((degrees - 1.0)[:, None] * first))
        else:
            sketches.append((second + x).T @ counts[length - 2]
                            - first.T @ ((degrees - 1.0)[:, None] * counts[length - 3]))
    return sketches


def normalize_statistics(counts: np.ndarray, variant: int = 1) -> np.ndarray:
    """Map a count matrix ``M`` to an observed statistics matrix ``P̂``.

    ``variant`` selects the paper's normalization:

    1. row-stochastic ``diag(M 1)^-1 M`` (Eq. 9, the recommended default),
    2. symmetric ``diag(M 1)^-1/2 M diag(M 1)^-1/2`` (Eq. 10, LGC-style),
    3. scaled so the mean entry is ``1/k`` (Eq. 11).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if variant == 1:
        return row_normalize(counts)
    if variant == 2:
        return symmetric_normalize(counts)
    if variant == 3:
        return scale_normalize(counts)
    raise ValueError(f"variant must be one of {NORMALIZATION_VARIANTS}, got {variant}")


def observed_statistics(
    adjacency,
    labels_matrix,
    max_length: int = 5,
    variant: int = 1,
    non_backtracking: bool = True,
) -> list[np.ndarray]:
    """Normalized path statistics ``P̂^(l)`` for ``l = 1 .. max_length``.

    This is the complete step (1) of the paper's two-step pipeline (Fig. 2):
    a list of ``k x k`` sketches ready to be handed to the optimizer.
    """
    count_matrices = path_statistics(
        adjacency, labels_matrix, max_length, non_backtracking=non_backtracking
    )
    return [normalize_statistics(counts, variant=variant) for counts in count_matrices]


def gold_standard_compatibility(
    graph: Graph, project_doubly_stochastic: bool = False
) -> np.ndarray:
    """Gold-standard compatibilities measured on the fully labeled graph.

    As in Section 5.3: with every label known, ``H_GS`` is simply the
    row-normalized neighbor label frequency matrix.  Set
    ``project_doubly_stochastic=True`` to additionally project onto the
    symmetric doubly-stochastic set (useful when the class prior is so
    imbalanced that row normalization alone is noticeably non-symmetric,
    e.g. before planting the matrix in the synthetic generator).
    """
    labels = graph.require_labels()
    if graph.n_classes is None:
        raise ValueError("graph must know its number of classes")
    full_labels = one_hot_labels(labels, graph.n_classes)
    counts = neighbor_statistics(graph.adjacency, full_labels)
    statistics = normalize_statistics(counts, variant=1)
    if project_doubly_stochastic:
        statistics = nearest_doubly_stochastic(statistics)
    return statistics

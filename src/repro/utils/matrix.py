"""Dense and sparse matrix helpers used throughout the library.

The estimators in :mod:`repro.core` work on small ``k x k`` dense matrices
(class statistics), while the propagation algorithms in
:mod:`repro.propagation` work on large ``n x n`` sparse adjacency matrices.
This module collects the normalizations, projections and distances both
sides rely on:

* the three normalization variants of the paper (Eq. 9, 10, 11),
* the projection onto symmetric doubly-stochastic matrices used by MCE,
* centering/residual helpers used by the LinBP analysis (Section 3.1),
* sparse adjacency normalizations (row / column / symmetric) shared by the
  propagation algorithms and memoized per graph by
  :class:`repro.graph.operators.GraphOperators`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "to_csr",
    "to_dense",
    "row_normalize",
    "symmetric_normalize",
    "scale_normalize",
    "center_matrix",
    "center_columns",
    "rows_over",
    "residual_matrix",
    "is_symmetric",
    "is_doubly_stochastic",
    "is_row_stochastic",
    "nearest_doubly_stochastic",
    "sinkhorn_projection",
    "frobenius_distance",
    "degree_vector",
    "degree_matrix",
    "frontier_product",
    "safe_reciprocal",
    "row_normalized_adjacency",
    "column_normalized_adjacency",
    "symmetric_normalized_adjacency",
]


def to_csr(matrix, dtype=np.float64) -> sp.csr_matrix:
    """Return ``matrix`` as a CSR sparse matrix with the requested dtype.

    Accepts dense arrays, any scipy sparse format, or an existing CSR matrix
    (returned as-is when the dtype already matches, so no copy is made).
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        if csr.dtype != dtype:
            csr = csr.astype(dtype)
        return csr
    dense = np.asarray(matrix, dtype=dtype)
    return sp.csr_matrix(dense)


def to_dense(matrix) -> np.ndarray:
    """Return ``matrix`` (dense or any scipy sparse format) as a dense float64 array."""
    return np.asarray(matrix.toarray() if sp.issparse(matrix) else matrix, dtype=np.float64)


def safe_reciprocal(values: np.ndarray) -> np.ndarray:
    """Element-wise ``1/x`` with zeros mapped to zero instead of ``inf``.

    Row sums of observed statistics matrices can legitimately be zero when a
    class has no labeled representative in the seed set; those rows must stay
    zero after normalization rather than propagate NaNs into the optimizer.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(values)
    nonzero = values != 0
    out[nonzero] = 1.0 / values[nonzero]
    return out


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalization variant 1 (Eq. 9): make each row sum to one.

    ``P = diag(M 1)^-1 M``.  Rows that sum to zero are left as all-zero rows.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    row_sums = matrix.sum(axis=1)
    return safe_reciprocal(row_sums)[:, None] * matrix


def symmetric_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalization variant 2 (Eq. 10): ``D^-1/2 M D^-1/2`` (LGC-style)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    row_sums = matrix.sum(axis=1)
    inv_sqrt = np.sqrt(safe_reciprocal(row_sums))
    return inv_sqrt[:, None] * matrix * inv_sqrt[None, :]


def scale_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalization variant 3 (Eq. 11): scale so the mean entry is ``1/k``.

    ``P = k (1^T M 1)^-1 M`` for a ``k x k`` matrix ``M``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    total = matrix.sum()
    if total == 0:
        return np.zeros_like(matrix)
    k = matrix.shape[0]
    return (k / total) * matrix


def center_matrix(matrix: np.ndarray, center: float | None = None) -> np.ndarray:
    """Return the residual of ``matrix`` around ``center`` (default ``1/k``).

    Centering around ``1/k`` is how LinBP turns a stochastic compatibility
    matrix into its residual form ``H~`` (Section 2.3).  Theorem 3.1 shows the
    final labels do not depend on the centering, which our tests verify.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if center is None:
        center = 1.0 / matrix.shape[1]
    return matrix - center


def center_columns(matrix: np.ndarray) -> np.ndarray:
    """Center each row of an explicit-belief matrix around ``1/k``.

    Only rows that contain any information (non-zero rows) are centered;
    unlabeled nodes keep their all-zero prior, matching the paper's
    convention that unlabeled nodes have a null row in ``X``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    k = matrix.shape[1]
    centered = matrix.copy()
    labeled = rows_over(matrix, 0.0)
    centered[labeled] = matrix[labeled] - 1.0 / k
    return centered


def rows_over(block: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean mask of the rows of ``block`` whose max-norm exceeds ``threshold``.

    Column-wise compare-and-or is ~10x faster than ``abs().max(axis=1)``
    for the narrow ``n x k`` blocks of beliefs and residuals; the row set is
    identical (pure comparisons, no floating point reordering).  With
    ``threshold=0`` it marks the rows holding any non-zero entry.
    """
    magnitude = np.abs(block)
    over = magnitude[:, 0] > threshold
    for column in range(1, block.shape[1]):
        np.logical_or(over, magnitude[:, column] > threshold, out=over)
    return over


def residual_matrix(matrix: np.ndarray) -> np.ndarray:
    """Alias for :func:`center_matrix` with the default ``1/k`` center."""
    return center_matrix(matrix)


def is_symmetric(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Return True if the dense matrix equals its transpose within ``tol``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.T, atol=tol))


def is_row_stochastic(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Return True if every row of ``matrix`` sums to one within ``tol``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return bool(np.allclose(matrix.sum(axis=1), 1.0, atol=tol))


def is_doubly_stochastic(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Return True if rows and columns of ``matrix`` all sum to one."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows_ok = np.allclose(matrix.sum(axis=1), 1.0, atol=tol)
    cols_ok = np.allclose(matrix.sum(axis=0), 1.0, atol=tol)
    return bool(rows_ok and cols_ok)


def nearest_doubly_stochastic(matrix: np.ndarray, symmetric: bool = True) -> np.ndarray:
    """Project onto the affine set of (symmetric) doubly-stochastic matrices.

    This is the Frobenius-norm projection used by MCE (Eq. 12): find the
    matrix ``H`` with ``H 1 = 1`` (and ``H = H^T`` when ``symmetric``) closest
    to the observed statistics matrix.  The projection onto the affine
    constraints has the closed form

    ``P(M) = M + (1/k)(I - M_r)(1 1^T)/k ...``

    but rather than hand-deriving it we use the well-known alternating
    projection onto the two affine subspaces ``{M : M 1 = 1}`` and
    ``{M : M^T 1 = 1}`` (von Neumann alternating projections converge for
    affine sets), with an optional symmetrization step.  Entries are *not*
    clipped to be non-negative: the paper's matrices stay non-negative in
    practice and the optimization formulation does not require it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    k = matrix.shape[0]
    current = matrix.copy()
    if symmetric:
        current = 0.5 * (current + current.T)
    ones = np.ones(k)
    for _ in range(200):
        # Project onto {M : M 1 = 1}: shift each row by its deficit / k.
        row_deficit = (1.0 - current @ ones) / k
        current = current + row_deficit[:, None]
        # Project onto {M : M^T 1 = 1}.
        col_deficit = (1.0 - ones @ current) / k
        current = current + col_deficit[None, :]
        if symmetric:
            current = 0.5 * (current + current.T)
        if np.allclose(current.sum(axis=1), 1.0, atol=1e-12) and np.allclose(
            current.sum(axis=0), 1.0, atol=1e-12
        ):
            break
    return current


def sinkhorn_projection(
    matrix: np.ndarray, max_iter: int = 1000, tol: float = 1e-10
) -> np.ndarray:
    """Sinkhorn-Knopp scaling of a non-negative matrix to doubly-stochastic form.

    Used by the synthetic data generator to produce valid planted
    compatibility matrices from arbitrary non-negative affinity patterns.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if np.any(matrix < 0):
        raise ValueError("Sinkhorn scaling requires a non-negative matrix")
    current = matrix.copy()
    for _ in range(max_iter):
        current = row_normalize(current)
        current = row_normalize(current.T).T
        if is_doubly_stochastic(current, tol=tol):
            break
    return current


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius (entry-wise L2) distance between two matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def degree_vector(adjacency) -> np.ndarray:
    """Return the (weighted) degree of each node as a 1-D array."""
    adjacency = to_csr(adjacency)
    return np.asarray(adjacency.sum(axis=1)).ravel()


def degree_matrix(adjacency) -> sp.csr_matrix:
    """Return the diagonal degree matrix ``D`` of the adjacency matrix."""
    return sp.diags(degree_vector(adjacency), format="csr")


FRONTIER_SHARE = 0.25  # past this share of nnz(W) a row slice costs a full product


def frontier_product(
    adjacency: sp.csr_matrix, block: np.ndarray, support: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``W @ block`` for a ``block`` that is zero off the row mask ``support``.

    Returns the product and the mask of rows it can reach.  While ``support``
    holds at most :data:`FRONTIER_SHARE` of ``W``'s non-zeros, only those rows
    are read, as ``W[:, rows] = W[rows].T`` (``W`` symmetric), at
    O(nnz(W[rows]) k + n k) instead of O(nnz(W) k).  Each row sums the same
    terms in ascending column order, so with sorted indices (scipy's canonical
    CSR) the result is bitwise ``W @ block``.  Past the cut, or for
    ``support=None``, it is the plain product with reach ``None``.
    """
    if support is not None:
        rows = np.flatnonzero(support)
        indptr = adjacency.indptr
        if (indptr[rows + 1] - indptr[rows]).sum() <= FRONTIER_SHARE * adjacency.nnz:
            reached = adjacency[rows]
            reach = np.zeros(adjacency.shape[0], dtype=bool)
            reach[reached.indices] = True
            return np.asarray(reached.T @ block[rows]), reach
    return np.asarray(adjacency @ block), None


def row_normalized_adjacency(adjacency) -> sp.csr_matrix:
    """Random-walk operator ``D^-1 W`` in CSR format.

    Rows of isolated nodes (zero degree) stay all-zero instead of NaN.  This
    is the operator behind harmonic-function propagation: one application
    replaces each node's beliefs with the degree-weighted neighbor average.
    """
    adjacency = to_csr(adjacency)
    inverse_degree = safe_reciprocal(degree_vector(adjacency))
    return (sp.diags(inverse_degree, format="csr") @ adjacency).tocsr()


def column_normalized_adjacency(adjacency) -> sp.csr_matrix:
    """Column-stochastic operator ``W D^-1`` used by random walks (Eq. 3).

    Columns of isolated nodes stay all-zero; the walk loses their mass, which
    the restart term replenishes.
    """
    adjacency = to_csr(adjacency)
    column_sums = np.asarray(adjacency.sum(axis=0)).ravel()
    scale = sp.diags(safe_reciprocal(column_sums), format="csr")
    return (adjacency @ scale).tocsr()


def symmetric_normalized_adjacency(adjacency) -> sp.csr_matrix:
    """Symmetric operator ``D^-1/2 W D^-1/2`` (LGC, Eq. 10 normalization)."""
    adjacency = to_csr(adjacency)
    inv_sqrt_degree = np.sqrt(safe_reciprocal(degree_vector(adjacency)))
    normalizer = sp.diags(inv_sqrt_degree, format="csr")
    return (normalizer @ adjacency @ normalizer).tocsr()

"""Input validation helpers shared by the public API surface.

All public entry points validate their arguments eagerly and raise
``ValueError``/``TypeError`` with actionable messages, so downstream sparse
linear algebra never fails with an opaque shape error deep inside scipy.
"""

from __future__ import annotations

import reprlib

import numpy as np
import scipy.sparse as sp

__all__ = [
    "check_adjacency",
    "check_labels",
    "check_probability",
    "check_square",
    "check_positive",
    "check_fraction",
    "check_integer",
    "check_integers",
]


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is a square 2-D array and return it as float."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square 2-D matrix, got shape {matrix.shape}")
    return matrix


def check_adjacency(adjacency, require_symmetric: bool = True) -> sp.csr_matrix:
    """Validate an adjacency matrix and return it in CSR format.

    Checks that the matrix is square, has only finite, non-negative weights
    and (by default) is symmetric, since the paper works on undirected graphs.
    """
    if sp.issparse(adjacency):
        csr = adjacency.tocsr().astype(np.float64)
    else:
        dense = np.asarray(adjacency, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"adjacency must be 2-D, got {dense.ndim}-D")
        csr = sp.csr_matrix(dense)
    if csr.shape[0] != csr.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {csr.shape}")
    if not np.isfinite(csr.data).all():
        raise ValueError("adjacency must not contain non-finite edge weights")
    if csr.nnz and csr.data.min() < 0:
        raise ValueError("adjacency must not contain negative edge weights")
    if require_symmetric:
        difference = (csr - csr.T).tocoo()
        if difference.nnz and np.abs(difference.data).max() > 1e-8:
            raise ValueError("adjacency must be symmetric (undirected graph)")
    return csr


def check_labels(labels, n_nodes: int | None = None, n_classes: int | None = None) -> np.ndarray:
    """Validate a node label vector.

    ``labels`` uses ``-1`` for unlabeled nodes and ``0..k-1`` for classes.
    Returns the vector as an ``int64`` array.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a 1-D vector, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == labels.astype(np.int64)):
            raise ValueError("labels must be integers (-1 for unlabeled)")
    labels = labels.astype(np.int64)
    if labels.size and labels.min() < -1:
        raise ValueError("labels must be >= -1 (-1 means unlabeled)")
    if n_nodes is not None and labels.shape[0] != n_nodes:
        raise ValueError(f"expected {n_nodes} labels, got {labels.shape[0]}")
    if n_classes is not None and labels.size and labels.max() >= n_classes:
        raise ValueError(
            f"label {labels.max()} out of range for {n_classes} classes"
        )
    return labels


def check_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction(value: float, name: str = "fraction") -> float:
    """Validate a strictly positive fraction in (0, 1]."""
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value


def check_positive(value, name: str = "value", strict: bool = True):
    """Validate that a scalar is positive (strictly by default)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _contains_bool(values) -> bool:
    if isinstance(values, (bool, np.bool_)):
        return True
    if isinstance(values, (list, tuple)):
        return any(_contains_bool(value) for value in values)
    return False


def check_integers(values, name: str = "values") -> np.ndarray:
    """Return ``values`` (a scalar or nested sequence) as an ``int64`` array.

    Only integer input is accepted: floats — even integral ones like
    ``1.0`` — strings and booleans raise ``ValueError`` instead of being
    truncated or coerced, so an id such as ``1.7`` can never silently
    address node 1.  Empty input is fine and yields an empty array.
    """
    array = np.asarray(values)
    if array.size == 0:
        return array.astype(np.int64)
    if array.dtype.kind not in "iu" or _contains_bool(values):
        raise ValueError(f"{name} must be integers, got {reprlib.repr(values)}")
    converted = array.astype(np.int64)
    if array.dtype.kind == "u" and (converted < 0).any():
        raise ValueError(f"{name} must fit in a signed 64-bit integer")
    return converted


def check_integer(value, name: str = "value") -> int:
    """Return a single integer, under the rules of :func:`check_integers`."""
    array = check_integers(value, name)
    if array.ndim:
        raise ValueError(f"{name} must be a single integer, got {reprlib.repr(value)}")
    return int(array)

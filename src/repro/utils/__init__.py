"""Shared utilities: matrix helpers, validation and RNG handling."""

from repro.utils.matrix import (
    center_columns,
    center_matrix,
    frobenius_distance,
    is_doubly_stochastic,
    is_symmetric,
    nearest_doubly_stochastic,
    row_normalize,
    scale_normalize,
    symmetric_normalize,
    to_csr,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_adjacency,
    check_labels,
    check_probability,
    check_square,
)

__all__ = [
    "center_columns",
    "center_matrix",
    "check_adjacency",
    "check_labels",
    "check_probability",
    "check_square",
    "ensure_rng",
    "frobenius_distance",
    "is_doubly_stochastic",
    "is_symmetric",
    "nearest_doubly_stochastic",
    "row_normalize",
    "scale_normalize",
    "symmetric_normalize",
    "to_csr",
]

"""Myopic Compatibility Estimation (MCE), Section 4.3.

MCE summarizes the partially labeled graph into the neighbor label count
matrix ``M = X^T W X``, normalizes it into an observed statistics matrix
``P̂`` (one of the three variants of Eq. 9-11), and then finds the closest
symmetric doubly-stochastic matrix in Frobenius norm (Eq. 12).  The
closed-form alternating projection onto the affine constraint set is
exactly that minimizer, so MCE runs no iterative solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.energy import mce_energy
from repro.core.estimators.base import BaseEstimator
from repro.core.statistics import (
    NORMALIZATION_VARIANTS,
    neighbor_statistics,
    normalize_statistics,
)
from repro.graph.graph import Graph
from repro.utils.matrix import nearest_doubly_stochastic

__all__ = ["MCE"]


class MCE(BaseEstimator):
    """Myopic compatibility estimation from direct-neighbor statistics.

    Parameters
    ----------
    variant:
        Normalization variant (1 row-stochastic, 2 symmetric, 3 scaled).
        The paper finds variant 1 consistently best; it is the default.
    """

    method_name = "MCE"

    def __init__(self, variant: int = 1) -> None:
        if variant not in NORMALIZATION_VARIANTS:
            raise ValueError(
                f"variant must be one of {NORMALIZATION_VARIANTS}, got {variant}"
            )
        self.variant = variant

    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        counts = neighbor_statistics(graph.adjacency, explicit_beliefs)
        observed = normalize_statistics(counts, variant=self.variant)
        details = {"observed_statistics": observed, "counts": counts, "variant": self.variant}
        compatibility = nearest_doubly_stochastic(observed)
        return compatibility, mce_energy(compatibility, observed), details

"""Myopic Compatibility Estimation (MCE), Section 4.3.

MCE summarizes the partially labeled graph into the neighbor label count
matrix ``M = X^T W X``, normalizes it into an observed statistics matrix
``P̂`` (one of the three variants of Eq. 9-11), and then finds the closest
symmetric doubly-stochastic matrix in Frobenius norm (Eq. 12).

Two solution strategies are provided:

* ``solver="projection"`` (default) — the closed-form alternating projection
  onto the affine constraint set, which is exactly the minimizer of Eq. 12;
* ``solver="slsqp"`` — the same SLSQP optimization over free parameters used
  by the other estimators, kept for parity with the paper's implementation
  and exercised by the test suite (the two agree to numerical precision).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.energy import mce_energy, mce_matrix_gradient
from repro.core.estimators.base import BaseEstimator
from repro.core.optimizer import minimize_matrix_energy
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
    solver:
        ``"projection"`` (closed form) or ``"slsqp"``.
    """

    method_name = "MCE"

    def __init__(self, variant: int = 1, solver: str = "projection") -> None:
        if variant not in NORMALIZATION_VARIANTS:
            raise ValueError(
                f"variant must be one of {NORMALIZATION_VARIANTS}, got {variant}"
            )
        if solver not in ("projection", "slsqp"):
            raise ValueError(f"solver must be 'projection' or 'slsqp', got {solver!r}")
        self.variant = variant
        self.solver = solver

    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        counts = neighbor_statistics(graph.adjacency, explicit_beliefs)
        observed = normalize_statistics(counts, variant=self.variant)
        details = {"observed_statistics": observed, "counts": counts, "variant": self.variant}

        if self.solver == "projection":
            compatibility = nearest_doubly_stochastic(observed)
            return compatibility, mce_energy(compatibility, observed), details

        outcome = minimize_matrix_energy(
            lambda matrix: mce_energy(matrix, observed),
            lambda matrix: mce_matrix_gradient(matrix, observed),
            graph.n_classes,
        )
        details["converged"] = outcome.converged
        return outcome.matrix, outcome.energy, details

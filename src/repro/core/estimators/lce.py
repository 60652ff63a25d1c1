"""Linear Compatibility Estimation (LCE), Section 4.2.

LCE minimizes the LinBP energy with the final beliefs replaced by the few
available seed labels: ``E(H) = ||X - W X H||^2`` (Eq. 8).  The problem is
convex in ``H`` and, like the other factorized estimators, only needs two
``k x k`` sufficient statistics of the graph (see
:class:`repro.core.energy.LCETerms`), so the optimization itself is
independent of the graph size.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.energy import lce_energy, lce_matrix_gradient, lce_terms
from repro.core.estimators.base import BaseEstimator
from repro.core.optimizer import minimize_matrix_energy
from repro.graph.graph import Graph

__all__ = ["LCE"]


class LCE(BaseEstimator):
    """Linear compatibility estimation.

    Parameters
    ----------
    bounds:
        Optional ``(low, high)`` box on the free parameters; the paper's
        formulation is unconstrained, so the default is ``None``.
    max_iterations:
        Iteration cap for the SLSQP solver.
    """

    method_name = "LCE"

    def __init__(
        self,
        bounds: tuple[float, float] | None = None,
        max_iterations: int = 500,
    ) -> None:
        self.bounds = bounds
        self.max_iterations = max_iterations

    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        terms = lce_terms(graph.adjacency, explicit_beliefs)
        outcome = minimize_matrix_energy(
            lambda matrix: lce_energy(matrix, terms),
            lambda matrix: lce_matrix_gradient(matrix, terms),
            graph.n_classes,
            bounds=self.bounds,
            max_iterations=self.max_iterations,
        )
        details = {
            "converged": outcome.converged,
            "n_iterations": outcome.n_iterations,
        }
        return outcome.matrix, outcome.energy, details

"""Linear Compatibility Estimation (LCE), Section 4.2.

LCE minimizes the LinBP energy with the final beliefs replaced by the few
available seed labels: ``E(H) = ||X - W X H||^2`` (Eq. 8).  Like the other
factorized estimators it only needs two ``k x k`` sufficient statistics of
the graph (see :class:`repro.core.energy.LCETerms`), and the energy is a
convex quadratic in ``H``: its minimizer over the ``k*`` free parameters
of Eq. 6 is one ``k* x k*`` linear solve, independent of the graph size.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.compatibility import parameter_map
from repro.core.energy import lce_energy, lce_terms
from repro.core.estimators.base import BaseEstimator
from repro.graph.graph import Graph

__all__ = ["LCE"]


class LCE(BaseEstimator):
    """Linear compatibility estimation (unconstrained, as in the paper)."""

    method_name = "LCE"

    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        terms = lce_terms(graph.adjacency, explicit_beliefs)
        k = graph.n_classes
        # Eq. 6 is vec(H) = o + B u with u = h - 1/k, and with row-major vec
        # tr(H^T G H) = vec(H)^T (G ⊗ I) vec(H) for G = gram.  A zero
        # gradient in u is B^T (G ⊗ I) B u = B^T (vec(C) - (G ⊗ I) o) for
        # C = cross; the minimum-norm solution leaves every direction the
        # seeds cannot identify at the uniform 1/k matrix o.
        offset, basis = parameter_map(k)
        quadratic = np.kron(terms.gram, np.eye(k))
        centered = np.linalg.lstsq(
            basis.T @ quadratic @ basis,
            basis.T @ (terms.cross.ravel() - quadratic @ offset),
            rcond=None,
        )[0]
        compatibility = (offset + basis @ centered).reshape(k, k)
        return compatibility, lce_energy(compatibility, terms), {}

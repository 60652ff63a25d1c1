"""Distant Compatibility Estimation, with and without restarts (Section 4.4-4.8).

DCE is the paper's headline method.  Step one summarizes the partially
labeled graph into the normalized non-backtracking path statistics
``P̂^(l)_NB`` for ``l = 1 .. l_max`` (Algorithm 4.4, O(m k l_max)); step two
minimizes the distance-smoothed energy

    ``E(H) = sum_l  w_l ||H^l - P̂^(l)_NB||^2``,   ``w_l = lambda^(l-1)``

over the ``k*`` free parameters of ``H``.  The objective is non-convex for
``l_max > 1``; DCEr restarts the optimization from points scattered around
the uninformative ``1/k`` matrix (Section 4.8) and keeps the lowest-energy
solution.

The energy is a sum of squares of the residuals
``sqrt(w_l) vec(H^l - P̂^(l))``, so the optimizer is Levenberg-Marquardt
(:func:`repro.core.optimizer.least_squares_batch`), run on all starts at
once: the ``B`` starts form a ``(B, k, k)`` stack, and one round costs a few
stacked products of ``k x k`` matrices for the energies and the Hessian
terms (:func:`repro.core.energy.dce_hessian_terms`) and one stacked
``k* x k*`` solve.  Each start keeps its own Marquardt damping and takes
Gauss-Newton steps until an accepted step gains at most ``1e-4`` of its
energy, then Newton steps on the exact Hessian: the statistics are noisy,
the residuals stay large, and Gauss-Newton alone would crawl to the minimum.
A start stops once an accepted step lowers its energy by at most ``1e-10``
of it, once no damped step lowers it at all, or after ``max_iterations``
steps.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.compatibility import restart_initial_points, uniform_vector, vector_to_matrix
from repro.core.energy import dce_forward_batch, dce_hessian_terms, dce_weights
from repro.core.estimators.base import BaseEstimator
from repro.core.optimizer import least_squares_batch
from repro.core.statistics import NORMALIZATION_VARIANTS, observed_statistics
from repro.graph.graph import Graph
from repro.utils.validation import check_positive

__all__ = ["DCE", "DCEr"]


class DCE(BaseEstimator):
    """Distant compatibility estimation (single optimization run).

    Parameters
    ----------
    max_length:
        Maximal path length ``l_max`` (paper recommends 5).
    scaling:
        The single hyperparameter lambda; weights are ``lambda^(l-1)``
        (paper recommends 10 in the sparse regime).
    variant:
        Normalization variant for the observed statistics (default 1).
    non_backtracking:
        Use NB path statistics (the consistent estimator of Thm 4.1).
        Setting this to False reproduces the biased plain-path ablation.
    initial:
        Optional explicit starting point (free-parameter vector); defaults
        to the uninformative all-``1/k`` point.
    max_iterations:
        Cap on the damped steps each start takes.
    """

    method_name = "DCE"

    def __init__(
        self,
        max_length: int = 5,
        scaling: float = 10.0,
        variant: int = 1,
        non_backtracking: bool = True,
        initial: np.ndarray | None = None,
        max_iterations: int = 500,
    ) -> None:
        check_positive(max_length, "max_length")
        check_positive(scaling, "scaling")
        if variant not in NORMALIZATION_VARIANTS:
            raise ValueError(
                f"variant must be one of {NORMALIZATION_VARIANTS}, got {variant}"
            )
        self.max_length = max_length
        self.scaling = scaling
        self.variant = variant
        self.non_backtracking = non_backtracking
        self.initial = initial
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------ hooks
    def _summarize(
        self, graph: Graph, explicit_beliefs: sp.csr_matrix
    ) -> list[np.ndarray]:
        """Step (1): compute the factorized graph statistics."""
        return observed_statistics(
            graph.adjacency,
            explicit_beliefs,
            max_length=self.max_length,
            variant=self.variant,
            non_backtracking=self.non_backtracking,
        )

    def _initial_points(self, n_classes: int) -> np.ndarray:
        if self.initial is not None:
            return np.asarray([self.initial], dtype=np.float64)
        return np.asarray([uniform_vector(n_classes)])

    def _optimize(
        self, statistics: list[np.ndarray], n_classes: int
    ) -> tuple[np.ndarray, float, dict]:
        """Step (2): minimize the distance-smoothed energy from every start."""
        weights = dce_weights(self.max_length, self.scaling)

        def energy(points: np.ndarray) -> np.ndarray:
            matrices = vector_to_matrix(points, n_classes)
            return dce_forward_batch(matrices, statistics, weights)[2]

        def hessian_terms(points: np.ndarray) -> tuple[np.ndarray, ...]:
            matrices = vector_to_matrix(points, n_classes)
            powers, residuals, _ = dce_forward_batch(matrices, statistics, weights)
            return dce_hessian_terms(powers, residuals, weights)

        outcome = least_squares_batch(
            energy, hessian_terms, self._initial_points(n_classes), self.max_iterations
        )
        winner = int(np.argmin(outcome.energies))
        details = {
            "restart_energies": outcome.energies.tolist(),
            "n_restarts": len(outcome.energies),
            "n_evaluations": outcome.n_evaluations,
            "n_iterations": outcome.n_rounds,
            "converged": bool(outcome.converged[winner]),
            "weights": weights,
        }
        matrix = vector_to_matrix(outcome.parameters[winner], n_classes)
        return matrix, float(outcome.energies[winner]), details

    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        summarize_start = time.perf_counter()
        with obs.span("estimator.statistics"):
            statistics = self._summarize(graph, explicit_beliefs)
        optimize_start = time.perf_counter()
        with obs.span("estimator.optimize") as span:
            compatibility, energy, details = self._optimize(statistics, graph.n_classes)
            span.annotate(n_restarts=details["n_restarts"], n_evaluations=details["n_evaluations"])
        optimize_end = time.perf_counter()
        details.update(
            {
                "observed_statistics": statistics,
                "summarization_seconds": optimize_start - summarize_start,
                "optimization_seconds": optimize_end - optimize_start,
                "max_length": self.max_length,
                "scaling": self.scaling,
                "non_backtracking": self.non_backtracking,
            }
        )
        return compatibility, energy, details


class DCEr(DCE):
    """DCE with random restarts (the paper's recommended estimator).

    Parameters
    ----------
    n_restarts:
        Number of optimization starts (paper uses 10, Fig. 6h).
    restart_delta:
        Perturbation added per free parameter when scattering starting points
        over the hyper-quadrants around ``1/k`` (defaults to just under
        ``1/k^2`` as the paper suggests).
    seed:
        Random seed controlling the restart points for reproducibility.
    """

    method_name = "DCEr"

    def __init__(
        self,
        max_length: int = 5,
        scaling: float = 10.0,
        variant: int = 1,
        non_backtracking: bool = True,
        n_restarts: int = 10,
        restart_delta: float | None = None,
        seed=None,
        max_iterations: int = 500,
    ) -> None:
        super().__init__(
            max_length=max_length,
            scaling=scaling,
            variant=variant,
            non_backtracking=non_backtracking,
            max_iterations=max_iterations,
        )
        check_positive(n_restarts, "n_restarts")
        self.n_restarts = n_restarts
        self.restart_delta = restart_delta
        self.seed = seed

    def _initial_points(self, n_classes: int) -> np.ndarray:
        return restart_initial_points(
            n_classes,
            self.n_restarts,
            delta=self.restart_delta,
            seed=self.seed,
            include_uniform=True,
        )

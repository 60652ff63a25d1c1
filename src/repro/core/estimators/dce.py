"""Distant Compatibility Estimation, with and without restarts (Section 4.4-4.8).

DCE is the paper's headline method.  Step one summarizes the partially
labeled graph into the normalized non-backtracking path statistics
``P̂^(l)_NB`` for ``l = 1 .. l_max`` (Algorithm 4.4, O(m k l_max)); step two
minimizes the distance-smoothed energy

    ``E(H) = sum_l  w_l ||H^l - P̂^(l)_NB||^2``,   ``w_l = lambda^(l-1)``

over the ``k*`` free parameters of ``H`` with the analytic gradient of
Proposition 4.7.  The objective is non-convex for ``l_max > 1``; DCEr
restarts the optimization from points scattered around the uninformative
``1/k`` matrix (Section 4.8) and keeps the lowest-energy solution.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.compatibility import restart_initial_points, uniform_vector, vector_to_matrix
from repro.core.energy import dce_adjoint, dce_forward, dce_weights, free_parameter_gradient
from repro.core.estimators.base import BaseEstimator
from repro.core.optimizer import best_outcome, minimize_free_parameters
from repro.core.statistics import NORMALIZATION_VARIANTS, observed_statistics
from repro.graph.graph import Graph
from repro.utils.validation import check_positive

__all__ = ["DCE", "DCEr", "DCEObjective"]


class DCEObjective:
    """DCE's energy and free-parameter gradient over one shared forward pass.

    SLSQP asks for the gradient at the point whose energy it has just
    evaluated, so the last forward pass ``(powers, residuals, energy)`` is
    kept, keyed on the point, and that gradient call runs only the adjoint
    pass.  ``n_evaluations`` counts the energy calls.
    """

    def __init__(self, statistics: list[np.ndarray], weights: np.ndarray, n_classes: int):
        self.statistics = np.asarray(statistics, dtype=np.float64)  # stacked: one subtraction
        self.weights, self.n_classes = weights, n_classes
        self.n_evaluations, self._cached = 0, (None, None)

    def _forward_pass(self, parameters: np.ndarray):
        key = np.asarray(parameters, dtype=np.float64).tobytes()
        if key != self._cached[0]:
            matrix = vector_to_matrix(parameters, self.n_classes)
            self._cached = (key, dce_forward(matrix, self.statistics, self.weights))
        return self._cached[1]

    def energy(self, parameters: np.ndarray) -> float:
        self.n_evaluations += 1
        return self._forward_pass(parameters)[2]

    def gradient(self, parameters: np.ndarray) -> np.ndarray:
        powers, residuals, _ = self._forward_pass(parameters)
        gradient = dce_adjoint(powers[0], residuals, self.weights)
        return free_parameter_gradient(gradient, self.n_classes)


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
    bounds:
        Optional box constraints on the free parameters.
    initial:
        Optional explicit starting point (free-parameter vector); defaults
        to the uninformative all-``1/k`` point.
    """

    method_name = "DCE"

    def __init__(
        self,
        max_length: int = 5,
        scaling: float = 10.0,
        variant: int = 1,
        non_backtracking: bool = True,
        bounds: tuple[float, float] | None = None,
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
        self.bounds = bounds
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
        """Step (2): minimize the distance-smoothed energy over ``h``."""
        weights = dce_weights(self.max_length, self.scaling)
        objective = DCEObjective(statistics, weights, n_classes)
        outcomes = [
            minimize_free_parameters(
                objective.energy,
                n_classes,
                gradient=objective.gradient,
                initial=start,
                method="SLSQP",
                bounds=self.bounds,
                max_iterations=self.max_iterations,
            )
            for start in self._initial_points(n_classes)
        ]
        winner = best_outcome(outcomes)
        details = {
            "restart_energies": [outcome.energy for outcome in outcomes],
            "n_restarts": len(outcomes),
            "n_evaluations": objective.n_evaluations,
            "converged": winner.converged,
            "weights": weights,
        }
        return winner.matrix, winner.energy, details

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
        bounds: tuple[float, float] | None = None,
        max_iterations: int = 500,
    ) -> None:
        super().__init__(
            max_length=max_length,
            scaling=scaling,
            variant=variant,
            non_backtracking=non_backtracking,
            bounds=bounds,
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

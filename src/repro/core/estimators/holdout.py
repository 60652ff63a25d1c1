"""Holdout baseline estimator (Section 4.1).

The textbook approach the paper compares against: split the available seed
labels into Seed/Holdout partitions, run full label propagation from the
Seed part for a candidate ``H``, score accuracy on the Holdout part, and
search the ``k*``-dimensional parameter space for the matrix with the best
(compound) accuracy.  Every objective evaluation performs inference over the
whole graph, which is exactly why this method is orders of magnitude slower
than the factorized estimators — the gap the scalability benchmarks measure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.compatibility import uniform_vector, vector_to_matrix
from repro.core.estimators.base import BaseEstimator
from repro.graph.graph import Graph
from repro.propagation.linbp import propagate_and_label
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive

__all__ = ["HoldoutEstimator"]


class HoldoutEstimator(BaseEstimator):
    """Estimate ``H`` by maximizing holdout accuracy of label propagation.

    Parameters
    ----------
    n_splits:
        Number of Seed/Holdout partitions ``b`` whose accuracies are summed
        (higher smooths the objective but multiplies the cost, Fig. 6f).
    holdout_fraction:
        Fraction of the labeled nodes moved to the Holdout side of each split.
    n_propagation_iterations:
        LinBP sweeps per objective evaluation.
    max_evaluations:
        Cap on Nelder-Mead objective evaluations (each one is a full
        propagation over the graph, so keep this modest).
    seed:
        Random seed controlling the partitions.
    """

    method_name = "Holdout"

    def __init__(
        self,
        n_splits: int = 1,
        holdout_fraction: float = 0.5,
        n_propagation_iterations: int = 10,
        max_evaluations: int = 150,
        seed=None,
    ) -> None:
        check_positive(n_splits, "n_splits")
        check_fraction(holdout_fraction, "holdout_fraction")
        check_positive(n_propagation_iterations, "n_propagation_iterations")
        check_positive(max_evaluations, "max_evaluations")
        self.n_splits = n_splits
        self.holdout_fraction = holdout_fraction
        self.n_propagation_iterations = n_propagation_iterations
        self.max_evaluations = max_evaluations
        self.seed = seed

    def _make_partitions(
        self, labeled_indices: np.ndarray, rng: np.random.Generator
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        partitions = []
        n_labeled = labeled_indices.shape[0]
        n_holdout = max(1, int(round(self.holdout_fraction * n_labeled)))
        n_holdout = min(n_holdout, n_labeled - 1) if n_labeled > 1 else 0
        for _ in range(self.n_splits):
            permuted = rng.permutation(labeled_indices)
            holdout = permuted[:n_holdout]
            seed_part = permuted[n_holdout:]
            if seed_part.size == 0:
                seed_part, holdout = holdout, seed_part
            partitions.append((seed_part, holdout))
        return partitions

    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        n_classes = graph.n_classes
        if n_classes == 1:
            # H = [[1]] has no free parameter to search over.
            return np.ones((1, 1)), None, {"n_splits": self.n_splits}
        rng = ensure_rng(self.seed)
        labeled_indices = np.flatnonzero(seed_labels >= 0)
        partitions = self._make_partitions(labeled_indices, rng)
        evaluation_count = 0

        def negative_compound_accuracy(parameters: np.ndarray) -> float:
            nonlocal evaluation_count
            evaluation_count += 1
            compatibility = vector_to_matrix(parameters, n_classes)
            total_accuracy = 0.0
            for seed_part, holdout in partitions:
                if holdout.size == 0:
                    continue
                partial = np.full(graph.n_nodes, -1, dtype=np.int64)
                partial[seed_part] = seed_labels[seed_part]
                predicted = propagate_and_label(
                    graph,
                    partial,
                    compatibility,
                    n_iterations=self.n_propagation_iterations,
                )
                correct = predicted[holdout] == seed_labels[holdout]
                total_accuracy += float(np.mean(correct))
            return -total_accuracy

        # Imported here so that only Holdout pays for scipy.optimize.
        from scipy.optimize import minimize

        outcome = minimize(
            negative_compound_accuracy,
            uniform_vector(n_classes),
            method="Nelder-Mead",
            tol=1e-9,
            options={"maxiter": self.max_evaluations},
        )
        details = {
            "n_splits": self.n_splits,
            "n_objective_evaluations": evaluation_count,
            "converged": bool(outcome.success),
        }
        return vector_to_matrix(outcome.x, n_classes), float(outcome.fun), details

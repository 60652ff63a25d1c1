"""Unit tests for the free-parameter optimization wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import (
    matrix_to_vector,
    skew_compatibility,
    uniform_vector,
    vector_to_matrix,
)
from repro.core.energy import dce_energy, dce_free_gradient, dce_weights, matrix_powers
from repro.core import optimizer
from repro.core.optimizer import (
    OptimizationOutcome,
    best_outcome,
    least_squares_batch,
    minimize_free_parameters,
)


class TestMinimizeFreeParameters:
    def test_quadratic_recovers_target(self):
        target = matrix_to_vector(skew_compatibility(3, h=3.0))

        def objective(parameters):
            return float(np.sum((parameters - target) ** 2))

        outcome = minimize_free_parameters(objective, 3)
        np.testing.assert_allclose(outcome.parameters, target, atol=1e-5)
        assert outcome.converged

    def test_with_analytic_gradient(self):
        target_matrix = skew_compatibility(3, h=8.0)
        statistics = matrix_powers(target_matrix, 3)
        weights = dce_weights(3, 10.0)

        def objective(parameters):
            return dce_energy(vector_to_matrix(parameters, 3), statistics, weights)

        def gradient(parameters):
            return dce_free_gradient(parameters, 3, statistics, weights)

        outcome = minimize_free_parameters(objective, 3, gradient=gradient)
        assert outcome.energy < 1e-6
        np.testing.assert_allclose(outcome.matrix, target_matrix, atol=1e-3)

    def test_default_initial_is_uniform(self):
        def objective(parameters):
            return float(np.sum(parameters**2))

        outcome = minimize_free_parameters(objective, 3, max_iterations=1)
        np.testing.assert_allclose(outcome.initial_parameters, uniform_vector(3))

    def test_bounds_respected(self):
        def objective(parameters):
            return float(np.sum((parameters - 2.0) ** 2))

        outcome = minimize_free_parameters(objective, 2, bounds=(0.0, 1.0))
        assert np.all(outcome.parameters <= 1.0 + 1e-9)

    def test_nelder_mead_ignores_gradient(self):
        def objective(parameters):
            return float(np.sum((parameters - 0.4) ** 2))

        def bad_gradient(parameters):  # pragma: no cover - must never run
            raise AssertionError("gradient must not be called for Nelder-Mead")

        outcome = minimize_free_parameters(
            objective, 2, gradient=bad_gradient, method="Nelder-Mead"
        )
        np.testing.assert_allclose(outcome.parameters, [0.4], atol=1e-4)

    def test_wrong_initial_size(self):
        with pytest.raises(ValueError, match="entries"):
            minimize_free_parameters(lambda h: 0.0, 3, initial=np.zeros(2))

    def test_returned_matrix_consistent_with_parameters(self):
        def objective(parameters):
            return float(np.sum(parameters**2))

        outcome = minimize_free_parameters(objective, 3)
        np.testing.assert_allclose(
            outcome.matrix, vector_to_matrix(outcome.parameters, 3)
        )


    def test_single_class_skips_the_optimizer(self, monkeypatch):
        def fail(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("k=1 has no free parameter to optimize")

        monkeypatch.setattr(optimizer.optimize, "minimize", fail)
        outcome = minimize_free_parameters(lambda h: 0.5, 1)
        assert np.array_equal(outcome.matrix, [[1.0]])
        assert outcome.energy == 0.5 and outcome.converged


def linear_problem(matrix, target):
    """Energy and Hessian terms of ``||A x - b||^2``, one row of ``x`` per start."""

    def energy(points):
        residuals = points @ matrix.T - target
        return np.sum(residuals * residuals, axis=1)

    def hessian_terms(points):
        residuals = points @ matrix.T - target
        gram = np.broadcast_to(matrix.T @ matrix, (len(points),) + (matrix.shape[1],) * 2)
        return gram.copy(), residuals @ matrix, np.zeros_like(gram)

    return energy, hessian_terms


def rosenbrock_energy(points):
    """``||r||^2`` of the residuals ``(10 (y - x^2), 1 - x)``, minimal at (1, 1)."""
    x, y = points[:, 0], points[:, 1]
    return (10.0 * (y - x * x)) ** 2 + (1.0 - x) ** 2


def rosenbrock_terms(points):
    x, y = points[:, 0], points[:, 1]
    residuals = np.stack([10.0 * (y - x * x), 1.0 - x], axis=1)
    jacobian = np.zeros((len(points), 2, 2))
    jacobian[:, 0, 0], jacobian[:, 0, 1], jacobian[:, 1, 0] = -20.0 * x, 10.0, -1.0
    curvature = np.zeros((len(points), 2, 2))
    curvature[:, 0, 0] = -20.0 * residuals[:, 0]
    gram = np.matmul(jacobian.swapaxes(1, 2), jacobian)
    gradient = np.matmul(jacobian.swapaxes(1, 2), residuals[:, :, None])[:, :, 0]
    return gram, gradient, curvature


class TestLeastSquaresBatch:
    def test_linear_problem_reaches_the_least_squares_solution(self):
        rng = np.random.default_rng(0)
        matrix, target = rng.standard_normal((8, 3)), rng.standard_normal(8)
        energy, hessian_terms = linear_problem(matrix, target)
        outcome = least_squares_batch(energy, hessian_terms, rng.standard_normal((4, 3)))
        solution = np.linalg.lstsq(matrix, target, rcond=None)[0]
        np.testing.assert_allclose(outcome.parameters, np.tile(solution, (4, 1)), atol=1e-8)
        assert outcome.converged.all()
        assert outcome.n_rounds == outcome.n_iterations.max()
        assert outcome.n_evaluations == 4 + outcome.n_iterations.sum()

    def test_rosenbrock_from_every_start(self):
        starts = [[-1.2, 1.0], [2.0, -1.0], [0.0, 0.0]]
        outcome = least_squares_batch(rosenbrock_energy, rosenbrock_terms, starts)
        np.testing.assert_allclose(outcome.parameters, np.ones((3, 2)), atol=1e-6)
        assert outcome.converged.all()

    def test_iteration_cap_stops_unconverged_starts(self):
        outcome = least_squares_batch(
            rosenbrock_energy, rosenbrock_terms, [[-1.2, 1.0]], max_iterations=2
        )
        assert outcome.n_iterations.tolist() == [2]
        assert not outcome.converged[0]

    def test_no_free_parameters(self):
        def hessian_terms(points):  # pragma: no cover - must never run
            raise AssertionError("nothing to linearize without parameters")

        outcome = least_squares_batch(
            lambda points: np.full(len(points), 2.0), hessian_terms, np.zeros((3, 0))
        )
        assert outcome.converged.all() and outcome.n_rounds == 0
        assert outcome.energies.tolist() == [2.0, 2.0, 2.0]


class TestBestOutcome:
    def _make(self, energy):
        return OptimizationOutcome(
            parameters=np.zeros(1),
            matrix=np.zeros((2, 2)),
            energy=energy,
            n_iterations=1,
            converged=True,
        )

    def test_picks_lowest_energy(self):
        outcomes = [self._make(3.0), self._make(1.0), self._make(2.0)]
        assert best_outcome(outcomes).energy == 1.0

    def test_single_outcome(self):
        outcome = self._make(5.0)
        assert best_outcome([outcome]) is outcome

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            best_outcome([])

"""Unit tests for the batched Levenberg-Marquardt solve behind DCE/DCEr."""

from __future__ import annotations

import numpy as np

from repro.core.optimizer import least_squares_batch


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


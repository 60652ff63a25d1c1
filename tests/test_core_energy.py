"""Unit tests for energy functions and the analytic gradient (Prop. 4.7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import (
    free_parameter_count,
    matrix_to_vector,
    random_compatibility,
    skew_compatibility,
    uniform_vector,
    vector_to_matrix,
)
from repro.core.energy import (
    dce_energy,
    dce_forward,
    dce_forward_batch,
    dce_free_gradient,
    dce_matrix_gradient,
    dce_hessian_terms,
    dce_weights,
    free_parameter_gradient,
    lce_energy,
    lce_terms,
    matrix_powers,
    mce_energy,
    structure_matrix,
)
from repro.graph.generator import generate_graph


def numeric_gradient(function, point, epsilon=1e-6):
    """Central finite-difference gradient, used to validate analytic forms."""
    point = np.asarray(point, dtype=np.float64)
    gradient = np.zeros_like(point)
    for index in range(point.shape[0]):
        forward = point.copy()
        backward = point.copy()
        forward[index] += epsilon
        backward[index] -= epsilon
        gradient[index] = (function(forward) - function(backward)) / (2 * epsilon)
    return gradient


class TestWeightsAndPowers:
    def test_dce_weights_geometric(self):
        np.testing.assert_allclose(dce_weights(4, 10.0), [1, 10, 100, 1000])

    def test_dce_weights_lambda_one(self):
        np.testing.assert_allclose(dce_weights(3, 1.0), [1, 1, 1])

    def test_dce_weights_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dce_weights(3, 0.0)

    def test_matrix_powers(self):
        matrix = skew_compatibility(3, h=3.0)
        powers = matrix_powers(matrix, 3)
        np.testing.assert_allclose(powers[2], matrix @ matrix @ matrix)

    def test_h2_example_from_paper(self):
        # Example 4.2: H^2 of the h=3 matrix has 0.44 on the diagonal.
        matrix = skew_compatibility(3, h=3.0)
        h2 = matrix_powers(matrix, 2)[1]
        expected = np.array(
            [[0.44, 0.28, 0.28], [0.28, 0.44, 0.28], [0.28, 0.28, 0.44]]
        )
        np.testing.assert_allclose(h2, expected)


class TestDceEnergy:
    def test_zero_at_exact_statistics(self):
        matrix = skew_compatibility(3, h=3.0)
        statistics = matrix_powers(matrix, 3)
        weights = dce_weights(3, 10.0)
        assert dce_energy(matrix, statistics, weights) == pytest.approx(0.0, abs=1e-12)

    def test_positive_away_from_statistics(self):
        matrix = skew_compatibility(3, h=3.0)
        statistics = matrix_powers(skew_compatibility(3, h=8.0), 3)
        assert dce_energy(matrix, statistics, dce_weights(3, 1.0)) > 0.01

    def test_weights_scale_energy(self):
        matrix = skew_compatibility(3, h=3.0)
        statistics = matrix_powers(skew_compatibility(3, h=8.0), 2)
        low = dce_energy(matrix, statistics, np.array([1.0, 1.0]))
        high = dce_energy(matrix, statistics, np.array([1.0, 10.0]))
        assert high > low

    def test_mismatched_lengths(self):
        matrix = skew_compatibility(3)
        with pytest.raises(ValueError):
            dce_energy(matrix, matrix_powers(matrix, 2), np.array([1.0]))


class TestStructureMatrix:
    def test_k2_single_parameter(self):
        structure = structure_matrix(2, 0, 0)
        np.testing.assert_allclose(structure, [[1, -1], [-1, 1]])

    def test_k3_off_diagonal_parameter(self):
        structure = structure_matrix(3, 1, 0)
        expected = np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 2]])
        np.testing.assert_allclose(structure, expected)

    def test_k3_diagonal_parameter(self):
        structure = structure_matrix(3, 1, 1)
        expected = np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]])
        np.testing.assert_allclose(structure, expected)

    def test_matches_finite_difference_of_parametrization(self):
        # The structure matrix must equal dH/dh_p of vector_to_matrix.
        k = 4
        base = uniform_vector(k)
        epsilon = 1e-7
        from repro.core.compatibility import free_parameter_indices

        for parameter_index, (row, col) in enumerate(free_parameter_indices(k)):
            bumped = base.copy()
            bumped[parameter_index] += epsilon
            numeric = (vector_to_matrix(bumped, k) - vector_to_matrix(base, k)) / epsilon
            np.testing.assert_allclose(numeric, structure_matrix(k, row, col), atol=1e-6)

    def test_rejects_last_row_positions(self):
        with pytest.raises(ValueError):
            structure_matrix(3, 2, 0)


class TestDceGradient:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("max_length", [1, 2, 3, 5])
    def test_analytic_matches_numeric(self, k, max_length):
        rng = np.random.default_rng(k * 10 + max_length)
        statistics = [random_compatibility(k, seed=i + 1) for i in range(max_length)]
        weights = dce_weights(max_length, 3.0)
        point = uniform_vector(k) + 0.05 * rng.standard_normal(free_parameter_count(k))

        def objective(parameters):
            return dce_energy(vector_to_matrix(parameters, k), statistics, weights)

        analytic = dce_free_gradient(point, k, statistics, weights)
        numeric = numeric_gradient(objective, point)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("k", [3, 8])
    def test_matrix_gradient_matches_prop47_double_sum(self, k):
        # The adjoint pass must equal the transpose-aware double sum
        # 2 sum_l w_l sum_r (H^T)^r (H^l - P^(l)) (H^T)^(l-1-r), also for an
        # H off the symmetric manifold.
        rng = np.random.default_rng(k)
        matrix = random_compatibility(k, seed=k) + 0.01 * rng.standard_normal((k, k))
        statistics = [random_compatibility(k, seed=k + i + 1) for i in range(5)]
        weights = dce_weights(5, 10.0)
        powers = [np.linalg.matrix_power(matrix, power) for power in range(6)]
        expected = sum(
            2.0 * weights[length - 1] * powers[r].T
            @ (powers[length] - statistics[length - 1])
            @ powers[length - 1 - r].T
            for length in range(1, 6)
            for r in range(length)
        )
        np.testing.assert_allclose(
            dce_matrix_gradient(matrix, statistics, weights), expected, rtol=1e-12, atol=1e-12
        )

    def test_gradient_zero_at_global_optimum(self):
        matrix = skew_compatibility(3, h=3.0)
        statistics = matrix_powers(matrix, 3)
        weights = dce_weights(3, 10.0)
        gradient = dce_free_gradient(matrix_to_vector(matrix), 3, statistics, weights)
        np.testing.assert_allclose(gradient, np.zeros(3), atol=1e-8)

    def test_matrix_gradient_symmetric_for_symmetric_inputs(self):
        matrix = skew_compatibility(3, h=3.0)
        statistics = matrix_powers(skew_compatibility(3, h=8.0), 3)
        gradient = dce_matrix_gradient(matrix, statistics, dce_weights(3, 2.0))
        np.testing.assert_allclose(gradient, gradient.T, atol=1e-10)


class TestDceBatch:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_forward_batch_matches_per_matrix(self, k):
        rng = np.random.default_rng(k)
        matrices = np.asarray(
            [random_compatibility(k, seed=k + i) + 0.01 * rng.standard_normal((k, k))
             for i in range(4)]
        )
        statistics = [random_compatibility(k, seed=10 + i) for i in range(5)]
        weights = dce_weights(5, 10.0)
        powers, residuals, energies = dce_forward_batch(matrices, statistics, weights)
        for index, matrix in enumerate(matrices):
            single_powers, single_residuals, single_energy = dce_forward(
                matrix, statistics, weights
            )
            np.testing.assert_allclose(powers[index], single_powers, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                residuals[index], single_residuals, rtol=1e-12, atol=1e-15
            )
            assert energies[index] == pytest.approx(single_energy, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_hessian_terms_match_finite_differences(self, k):
        statistics = [random_compatibility(k, seed=20 + i) for i in range(4)]
        weights = dce_weights(4, 3.0)
        points = uniform_vector(k) + np.random.default_rng(k).uniform(
            -0.05, 0.05, size=(3, free_parameter_count(k))
        )

        def residual(point):
            _, residuals, _ = dce_forward(vector_to_matrix(point, k), statistics, weights)
            return (np.sqrt(weights)[:, None, None] * residuals).ravel()

        def half_gradient(point):
            return dce_free_gradient(point, k, statistics, weights) / 2.0

        powers, residuals, _ = dce_forward_batch(
            vector_to_matrix(points, k), statistics, weights
        )
        gram, gradient, curvature = dce_hessian_terms(powers, residuals, weights)
        epsilon = 1e-6
        for index, point in enumerate(points):
            steps = epsilon * np.eye(len(point))
            jacobian = np.column_stack(
                [(residual(point + step) - residual(point - step)) / (2 * epsilon)
                 for step in steps]
            )
            half_hessian = np.column_stack(
                [(half_gradient(point + step) - half_gradient(point - step)) / (2 * epsilon)
                 for step in steps]
            )
            np.testing.assert_allclose(gram[index], jacobian.T @ jacobian, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(
                gradient[index], jacobian.T @ residual(point), rtol=1e-6, atol=1e-6
            )
            np.testing.assert_allclose(
                gram[index] + curvature[index], half_hessian, rtol=1e-5, atol=1e-5
            )
            np.testing.assert_allclose(curvature[index], curvature[index].T, atol=1e-12)


class TestMceEnergy:
    def test_zero_at_observed(self):
        observed = skew_compatibility(3)
        assert mce_energy(observed, observed) == 0.0

    def test_gradient_matches_numeric(self):
        observed = random_compatibility(3, seed=4)
        point = uniform_vector(3) + 0.02

        def objective(parameters):
            return mce_energy(vector_to_matrix(parameters, 3), observed)

        # 2 (H - P̂) is the full-matrix gradient the SLSQP reference uses.
        analytic = free_parameter_gradient(2.0 * (vector_to_matrix(point, 3) - observed), 3)
        numeric = numeric_gradient(objective, point)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


class TestLceEnergy:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = generate_graph(300, 1_800, skew_compatibility(3, h=3.0), seed=6)
        explicit = graph.partial_label_matrix(np.arange(0, 300, 3))
        return graph, explicit

    def test_terms_shapes(self, setup):
        graph, explicit = setup
        terms = lce_terms(graph.adjacency, explicit)
        assert terms.gram.shape == (3, 3)
        assert terms.cross.shape == (3, 3)
        assert terms.n_classes == 3

    def test_energy_matches_direct_evaluation(self, setup):
        graph, explicit = setup
        terms = lce_terms(graph.adjacency, explicit)
        matrix = skew_compatibility(3, h=3.0)
        dense_labels = explicit.toarray()
        direct = np.linalg.norm(
            dense_labels - np.asarray(graph.adjacency @ dense_labels) @ matrix
        ) ** 2
        assert lce_energy(matrix, terms) == pytest.approx(direct, rel=1e-9)

    def test_gradient_matches_numeric(self, setup):
        graph, explicit = setup
        terms = lce_terms(graph.adjacency, explicit)
        point = uniform_vector(3) + 0.03

        def objective(parameters):
            return lce_energy(vector_to_matrix(parameters, 3), terms)

        # 2 (G H - C): the gradient LCE's closed form sets to zero.
        matrix = vector_to_matrix(point, 3)
        analytic = free_parameter_gradient(2.0 * (terms.gram @ matrix - terms.cross), 3)
        numeric = numeric_gradient(objective, point)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-4)

    def test_energy_nonnegative(self, setup):
        graph, explicit = setup
        terms = lce_terms(graph.adjacency, explicit)
        for seed in range(5):
            matrix = random_compatibility(3, seed=seed)
            assert lce_energy(matrix, terms) >= 0

"""Unit tests for the compatibility-matrix parametrization (Eq. 6)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.compatibility import (
    free_parameter_count,
    free_parameter_indices,
    heuristic_two_level,
    homophily_compatibility,
    matrix_to_vector,
    random_compatibility,
    restart_initial_points,
    skew_compatibility,
    uniform_vector,
    validate_compatibility,
    vector_to_matrix,
)
from repro.utils.matrix import is_doubly_stochastic, is_symmetric


class TestFreeParameters:
    @pytest.mark.parametrize("k,expected", [(2, 1), (3, 3), (4, 6), (5, 10), (7, 21)])
    def test_count(self, k, expected):
        assert free_parameter_count(k) == expected

    def test_cora_parameter_count_from_paper(self):
        # The paper notes Cora (k=7) needs only 21 estimated parameters.
        assert free_parameter_count(7) == 21

    def test_indices_layout_k3(self):
        assert free_parameter_indices(3) == [(0, 0), (1, 0), (1, 1)]

    def test_indices_all_in_leading_block(self):
        for row, col in free_parameter_indices(5):
            assert row < 4 and col < 4 and col <= row

    def test_uniform_vector(self):
        np.testing.assert_allclose(uniform_vector(4), np.full(6, 0.25))


class TestVectorMatrixRoundTrip:
    def test_paper_example_k3(self):
        # Paper Section 4: h = [H11, H21, H22] reconstructs the full matrix.
        h = np.array([0.2, 0.6, 0.2])
        matrix = vector_to_matrix(h, 3)
        expected = np.array(
            [
                [0.2, 0.6, 0.2],
                [0.6, 0.2, 0.2],
                [0.2, 0.2, 0.6],
            ]
        )
        np.testing.assert_allclose(matrix, expected)

    def test_result_is_symmetric_doubly_stochastic(self):
        h = np.array([0.3, 0.25, 0.4])
        matrix = vector_to_matrix(h, 3)
        assert is_symmetric(matrix)
        assert is_doubly_stochastic(matrix)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_round_trip_from_random_doubly_stochastic(self, k):
        # Sinkhorn scaling is doubly stochastic only up to its iteration
        # tolerance, and the round trip re-derives the last row/column from
        # exact stochasticity, hence the slightly relaxed tolerance here.
        matrix = random_compatibility(k, seed=k)
        recovered = vector_to_matrix(matrix_to_vector(matrix), k)
        np.testing.assert_allclose(recovered, matrix, atol=5e-6)

    def test_round_trip_vector_first(self):
        h = np.array([0.5])
        np.testing.assert_allclose(matrix_to_vector(vector_to_matrix(h, 2)), h)

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="free parameters"):
            vector_to_matrix(np.array([0.1, 0.2]), 3)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_parameter_map_matches_eq6(self, k):
        # The cached affine map must reproduce Eq. 6 written out entry by
        # entry in exact arithmetic: free entries mirrored into the leading
        # block, the last row/column absorbing the slack, the corner
        # 2 - k + block sum.
        rng = np.random.default_rng(k)
        for _ in range(20):
            h = uniform_vector(k) + 0.9 / k**2 * rng.uniform(-1.0, 1.0, free_parameter_count(k))
            exact = [[Fraction(0)] * k for _ in range(k)]
            for value, (row, col) in zip(h, free_parameter_indices(k)):
                exact[row][col] = exact[col][row] = Fraction(float(value))
            block = [row[:-1] for row in exact[:-1]]
            for index in range(k - 1):
                exact[index][-1] = exact[-1][index] = 1 - sum(block[index])
            exact[-1][-1] = 2 - k + sum(map(sum, block))
            expected = np.array([[float(value) for value in row] for row in exact])
            matrix = vector_to_matrix(h, k)
            np.testing.assert_array_equal(matrix, matrix.T)
            np.testing.assert_allclose(matrix.sum(axis=0), 1.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-15)

    def test_row_sums_always_one_even_for_unconstrained_h(self):
        # The parametrization enforces stochasticity for any h, even one that
        # yields negative entries — exactly what the optimizers exploit.
        h = np.array([0.9, 0.8, 0.9])
        matrix = vector_to_matrix(h, 3)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(3), atol=1e-12)
        np.testing.assert_allclose(matrix.sum(axis=0), np.ones(3), atol=1e-12)
        assert matrix.min() < 0


class TestValidation:
    def test_accepts_valid(self):
        validate_compatibility(skew_compatibility(3, h=3.0))

    def test_rejects_asymmetric(self):
        bad = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError, match="symmetric"):
            validate_compatibility(bad)

    def test_rejects_non_stochastic(self):
        bad = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            validate_compatibility(bad)

    def test_rejects_negative_by_default(self):
        bad = vector_to_matrix(np.array([0.9, 0.8, 0.9]), 3)
        with pytest.raises(ValueError, match="non-negative"):
            validate_compatibility(bad)

    def test_negative_allowed_when_flagged(self):
        bad = vector_to_matrix(np.array([0.9, 0.8, 0.9]), 3)
        validate_compatibility(bad, require_nonnegative=False)


class TestSkewMatrices:
    def test_paper_h3_example(self):
        expected = np.array(
            [[0.2, 0.6, 0.2], [0.6, 0.2, 0.2], [0.2, 0.2, 0.6]]
        )
        np.testing.assert_allclose(skew_compatibility(3, h=3.0), expected)

    def test_paper_h8_example(self):
        expected = np.array(
            [[0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]
        )
        np.testing.assert_allclose(skew_compatibility(3, h=8.0), expected)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("h", [2.0, 3.0, 8.0])
    def test_always_valid_compatibility(self, k, h):
        validate_compatibility(skew_compatibility(k, h=h))

    def test_skew_ratio(self):
        matrix = skew_compatibility(4, h=8.0)
        assert matrix.max() / matrix.min() == pytest.approx(8.0)

    def test_homophily_diagonal_dominates(self):
        matrix = homophily_compatibility(3, h=5.0)
        assert np.all(np.diag(matrix) > matrix[0, 1])
        validate_compatibility(matrix)


class TestRandomCompatibility:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_valid(self, k):
        validate_compatibility(random_compatibility(k, seed=0), tol=1e-4)

    def test_reproducible(self):
        np.testing.assert_allclose(
            random_compatibility(4, seed=9), random_compatibility(4, seed=9)
        )

    def test_seed_changes_matrix(self):
        a = random_compatibility(4, seed=1)
        b = random_compatibility(4, seed=2)
        assert np.max(np.abs(a - b)) > 1e-3


class TestRestartPoints:
    def test_first_point_is_uniform(self):
        points = restart_initial_points(3, 5, seed=0)
        np.testing.assert_allclose(points[0], uniform_vector(3))

    def test_count(self):
        assert restart_initial_points(3, 7, seed=0).shape == (7, 3)

    def test_points_near_uniform(self):
        points = restart_initial_points(3, 10, seed=0)
        assert np.max(np.abs(points - 1.0 / 3)) < 0.2

    def test_high_k_uses_random_signs(self):
        points = restart_initial_points(7, 12, seed=0)
        assert points.shape == (12, free_parameter_count(7))

    def test_delta_respected(self):
        points = restart_initial_points(3, 4, delta=0.01, seed=0)
        off_uniform = points[1:] - 1.0 / 3
        np.testing.assert_allclose(np.abs(off_uniform), 0.01)

    def test_reproducible(self):
        np.testing.assert_allclose(
            restart_initial_points(4, 6, seed=3), restart_initial_points(4, 6, seed=3)
        )


class TestHeuristicTwoLevel:
    def test_valid_compatibility(self):
        pattern = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=bool)
        matrix = heuristic_two_level(pattern, high=3.0, low=1.0)
        validate_compatibility(matrix, tol=1e-4)

    def test_high_positions_larger(self):
        pattern = np.array([[0, 1], [1, 0]], dtype=bool)
        matrix = heuristic_two_level(pattern, high=4.0, low=1.0)
        assert matrix[0, 1] > matrix[0, 0]

    def test_rejects_high_below_low(self):
        with pytest.raises(ValueError):
            heuristic_two_level(np.eye(2, dtype=bool), high=1.0, low=2.0)

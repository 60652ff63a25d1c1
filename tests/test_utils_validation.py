"""Unit tests for repro.utils.validation and the RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.graph import Graph
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_adjacency,
    check_fraction,
    check_integer,
    check_integers,
    check_labels,
    check_positive,
    check_probability,
    check_square,
)


class TestCheckSquare:
    def test_accepts_square(self):
        matrix = check_square(np.eye(3))
        assert matrix.shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.ones((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            check_square(np.ones(4))


class TestCheckAdjacency:
    def test_accepts_symmetric_sparse(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert check_adjacency(matrix).shape == (2, 2)

    def test_accepts_dense(self):
        dense = np.array([[0.0, 2.0], [2.0, 0.0]])
        result = check_adjacency(dense)
        assert sp.issparse(result)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetric_allowed_when_flag_off(self):
        result = check_adjacency(
            np.array([[0.0, 1.0], [0.0, 0.0]]), require_symmetric=False
        )
        assert result.nnz == 1

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="negative"):
            check_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, weight):
        dense = np.array([[0.0, weight], [weight, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            check_adjacency(dense)
        with pytest.raises(ValueError, match="non-finite"):
            Graph(adjacency=sp.csr_matrix(dense))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_adjacency(np.ones((2, 3)))


class TestCheckLabels:
    def test_basic(self):
        labels = check_labels([0, 1, -1])
        assert labels.dtype == np.int64

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            check_labels(np.zeros((2, 2)))

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            check_labels([-2, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3"):
            check_labels([0, 1], n_nodes=3)

    def test_rejects_out_of_range_class(self):
        with pytest.raises(ValueError, match="out of range"):
            check_labels([0, 3], n_classes=3)

    def test_accepts_float_integers(self):
        labels = check_labels(np.array([0.0, 1.0, -1.0]))
        assert labels.tolist() == [0, 1, -1]

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="integers"):
            check_labels(np.array([0.5, 1.0]))


class TestScalarChecks:
    def test_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5)

    def test_fraction_excludes_zero(self):
        assert check_fraction(0.1) == 0.1
        with pytest.raises(ValueError):
            check_fraction(0.0)

    def test_positive(self):
        assert check_positive(3) == 3
        with pytest.raises(ValueError):
            check_positive(0)
        assert check_positive(0, strict=False) == 0


class TestCheckIntegers:
    def test_accepts_integer_input(self):
        assert check_integers([[0, 1], [2, 3]], "edges").dtype == np.int64
        assert int(check_integers(np.uint8(7), "k")) == 7
        assert check_integers(np.array([1, 2], dtype=np.int32), "n").tolist() == [1, 2]

    def test_empty_input_is_an_empty_integer_array(self):
        assert check_integers([], "nodes").dtype == np.int64
        assert check_integers(np.empty((0, 2)), "edges").shape == (0, 2)

    @pytest.mark.parametrize("values", [
        [1.7], [1.0], 2.9, "5", ["5"], True, [True], [1, True], [[0.9, 5]],
        None, [2**70], np.array([0.0, 1.0]),
    ])
    def test_rejects_anything_but_integers(self, values):
        with pytest.raises(ValueError, match="nodes must be integers"):
            check_integers(values, "nodes")

    def test_single_integer(self):
        assert check_integer(np.int32(3), "top_k") == 3
        with pytest.raises(ValueError, match="single integer"):
            check_integer([2], "top_k")
        with pytest.raises(ValueError, match="must be integers"):
            check_integer(2.0, "top_k")

    def test_rejects_unsigned_values_beyond_int64(self):
        with pytest.raises(ValueError, match="64-bit"):
            check_integers([2**63], "nodes")


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_reproducible(self):
        first = ensure_rng(42).integers(0, 1000, size=5)
        second = ensure_rng(42).integers(0, 1000, size=5)
        np.testing.assert_array_equal(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_spawn_rngs_independent(self):
        streams = spawn_rngs(7, 3)
        assert len(streams) == 3
        draws = [stream.integers(0, 10**9) for stream in streams]
        assert len(set(draws)) == 3

    def test_spawn_rngs_reproducible(self):
        first = [g.integers(0, 10**6) for g in spawn_rngs(1, 4)]
        second = [g.integers(0, 10**6) for g in spawn_rngs(1, 4)]
        assert first == second


"""Tests that verify the paper's formal claims on concrete instances.

Each test class corresponds to one theorem / proposition / example of the
paper and checks the claim computationally (the analytic proofs live in the
paper; here we make sure the implementation realizes them).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.core.energy import dce_energy, dce_weights, matrix_powers
from repro.core.nonbacktracking import explicit_nb_walk_matrices, factorized_nb_counts
from repro.core.statistics import observed_statistics
from repro.graph.generator import generate_graph
from repro.eval.seeding import stratified_seed_labels
from repro.graph.graph import one_hot_labels
from repro.propagation.convergence import linbp_scaling, spectral_radius
from repro.propagation.linbp import linbp
from repro.utils.matrix import center_matrix


class TestTheorem31:
    """Centering in LinBP is unnecessary for the final labels."""

    def test_label_equivalence_on_synthetic_graph(self):
        graph = generate_graph(800, 6_400, skew_compatibility(3, h=8.0), seed=3)
        prior = graph.partial_label_matrix(np.arange(0, 800, 10))
        compatibility = skew_compatibility(3, h=8.0)
        scaling = linbp_scaling(graph.adjacency, center_matrix(compatibility))
        centered = linbp(
            graph.adjacency, prior, compatibility, center=True, scaling=scaling
        )
        uncentered = linbp(
            graph.adjacency, prior, compatibility, center=False, scaling=scaling
        )
        assert np.mean(centered.labels == uncentered.labels) > 0.99

    def test_example_c1_divergence_with_identical_labels(self):
        """Example C.1: uncentered beliefs can grow while labels stay identical."""
        graph = generate_graph(500, 3_000, skew_compatibility(3, h=8.0), seed=9)
        prior = graph.partial_label_matrix(np.arange(0, 500, 25))
        compatibility = skew_compatibility(3, h=8.0)
        # Choose epsilon so the *centered* version converges (s=0.95) which
        # makes the uncentered spectral radius exceed 1 (s ~ 1.18 in paper).
        scaling = linbp_scaling(graph.adjacency, center_matrix(compatibility), safety=0.95)
        centered = linbp(
            graph.adjacency, prior, compatibility, center=True, scaling=scaling,
            n_iterations=20,
        )
        uncentered = linbp(
            graph.adjacency, prior, compatibility, center=False, scaling=scaling,
            n_iterations=20,
        )
        # The uncentered iterates blow up relative to the centered ones ...
        assert np.max(np.abs(uncentered.beliefs)) > 5 * np.max(np.abs(centered.beliefs))
        # ... yet the arg-max labels agree (Theorem 3.1).
        assert np.mean(centered.labels == uncentered.labels) > 0.99

    def test_uncentered_spectral_radius_is_one(self):
        assert spectral_radius(skew_compatibility(3, h=8.0)) == pytest.approx(1.0)
        assert spectral_radius(center_matrix(skew_compatibility(3, h=8.0))) == pytest.approx(0.7)


class TestProposition32:
    """The LinBP fixed point minimizes the quadratic energy of Eq. 5."""

    def test_energy_decreases_towards_fixed_point(self):
        graph = generate_graph(400, 2_400, skew_compatibility(3, h=3.0), seed=5)
        prior = graph.partial_label_matrix(np.arange(0, 400, 8)).toarray()
        compatibility = center_matrix(skew_compatibility(3, h=3.0))
        scaling = linbp_scaling(graph.adjacency, compatibility, safety=0.5)
        scaled = scaling * compatibility

        def energy(beliefs):
            residual = beliefs - prior - np.asarray(graph.adjacency @ beliefs) @ scaled
            return float(np.sum(residual * residual))

        few = linbp(
            graph.adjacency, prior, scaled, center=False, scaling=1.0, n_iterations=2
        ).beliefs
        many = linbp(
            graph.adjacency, prior, scaled, center=False, scaling=1.0, n_iterations=50
        ).beliefs
        assert energy(many) < energy(few)
        assert energy(many) == pytest.approx(0.0, abs=1e-6)


class TestTheorem41AndExample42:
    """Non-backtracking statistics are (nearly) unbiased estimators of H^l."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_graph(
            5_000, 50_000, skew_compatibility(3, h=3.0), seed=1, distribution="uniform"
        )

    def test_nb_statistics_track_powers(self, graph):
        planted = skew_compatibility(3, h=3.0)
        partial = one_hot_labels(
            stratified_seed_labels(graph.labels, fraction=0.1, rng=0), 3
        )
        nb_stats = observed_statistics(
            graph.adjacency, partial, max_length=4, non_backtracking=True
        )
        series_true = [np.linalg.matrix_power(planted, length)[0, 1] for length in range(1, 5)]
        series_nb = [stat[0, 1] for stat in nb_stats]
        # Tolerance reflects the sampling noise of a 10% seed set (the paper's
        # Fig. 5a shows the same error bars around the true series).
        np.testing.assert_allclose(series_nb, series_true, atol=0.06)

    def test_plain_statistics_biased_toward_diagonal(self, graph):
        planted = skew_compatibility(3, h=3.0)
        partial = one_hot_labels(
            stratified_seed_labels(graph.labels, fraction=0.1, rng=0), 3
        )
        plain_stats = observed_statistics(
            graph.adjacency, partial, max_length=3, non_backtracking=False
        )
        nb_stats = observed_statistics(
            graph.adjacency, partial, max_length=3, non_backtracking=True
        )
        # Length 2: backtracking paths return to the start node, so the plain
        # statistics overestimate the diagonal (Fig. 5a).
        true_power2 = np.linalg.matrix_power(planted, 2)
        plain_bias = np.mean(np.diag(plain_stats[1]) - np.diag(true_power2))
        nb_bias = np.mean(np.diag(nb_stats[1]) - np.diag(true_power2))
        assert plain_bias > 0.02
        assert abs(nb_bias) < plain_bias
        # Length 3: backtracking paths end at neighbors of the start, biasing
        # the whole matrix; the NB statistics stay closer to H^3 overall.
        true_power3 = np.linalg.matrix_power(planted, 3)
        assert np.linalg.norm(nb_stats[2] - true_power3) <= np.linalg.norm(
            plain_stats[2] - true_power3
        )

    def test_bias_shrinks_with_degree(self):
        # The plain-path bias is O(1/d): doubling the degree should shrink it.
        planted = skew_compatibility(3, h=3.0)
        biases = []
        for n_edges in (10_000, 40_000):
            graph = generate_graph(2_000, n_edges, planted, seed=7)
            stats = observed_statistics(
                graph.adjacency, graph.label_matrix(), max_length=2, non_backtracking=False
            )
            biases.append(
                float(np.mean(np.diag(stats[1]) - np.diag(planted @ planted)))
            )
        assert biases[1] < biases[0]


class TestProposition43:
    """The NB recurrence matches brute-force path enumeration."""

    def test_recurrence_on_small_graph_vs_enumeration(self):
        graph = generate_graph(20, 50, skew_compatibility(2, h=2.0), seed=2)
        adjacency = graph.adjacency.toarray()
        max_length = 4
        matrices = explicit_nb_walk_matrices(graph.adjacency, max_length)

        # Brute-force enumeration of non-backtracking paths.
        n = graph.n_nodes
        neighbors = [np.flatnonzero(adjacency[i]) for i in range(n)]
        counts = [np.zeros((n, n)) for _ in range(max_length)]
        for start in range(n):
            stack = [(start, None, 0)]
            while stack:
                node, previous, depth = stack.pop()
                if depth > 0:
                    counts[depth - 1][start, node] += 1
                if depth == max_length:
                    continue
                for neighbor in neighbors[node]:
                    if previous is not None and neighbor == previous:
                        continue
                    stack.append((neighbor, node, depth + 1))
        for matrix, brute in zip(matrices, counts):
            np.testing.assert_allclose(matrix.toarray(), brute)


class TestProposition45:
    """Factorized summation is linear in l_max and avoids n x n intermediates."""

    def test_cost_scales_roughly_linearly_in_length(self):
        import time

        graph = generate_graph(3_000, 30_000, skew_compatibility(3, h=3.0), seed=4)
        labels_matrix = graph.label_matrix()

        def measure(length):
            start = time.perf_counter()
            factorized_nb_counts(graph.adjacency, labels_matrix, length)
            return time.perf_counter() - start

        measure(1)  # warm-up
        short = min(measure(2) for _ in range(3))
        long = min(measure(8) for _ in range(3))
        # 8 lengths should cost far less than the d^l blow-up of explicit
        # powers — allow a generous constant factor over the 4x ideal.
        assert long < 25 * max(short, 1e-4)

    def test_intermediate_shapes_are_thin(self):
        graph = generate_graph(500, 2_500, skew_compatibility(3, h=3.0), seed=6)
        counts = factorized_nb_counts(graph.adjacency, graph.label_matrix(), 6)
        for matrix in counts:
            assert matrix.shape == (500, 3)


class TestProposition47:
    """The analytic gradient finds the planted optimum."""

    def test_gradient_descent_reaches_global_optimum_from_truth_statistics(self):
        from scipy.optimize import minimize

        from repro.core.compatibility import uniform_vector, vector_to_matrix
        from repro.core.energy import dce_free_gradient

        target = skew_compatibility(3, h=8.0)
        statistics = matrix_powers(target, 5)
        weights = dce_weights(5, 10.0)

        outcome = minimize(
            lambda h: dce_energy(vector_to_matrix(h, 3), statistics, weights),
            uniform_vector(3) + np.array([0.05, -0.05, 0.05]),
            jac=lambda h: dce_free_gradient(h, 3, statistics, weights),
            method="SLSQP",
            tol=1e-9,
            options={"maxiter": 500},
        )
        np.testing.assert_allclose(vector_to_matrix(outcome.x, 3), target, atol=1e-3)

"""Unit tests for LinBP and its convergence machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import homophily_compatibility, skew_compatibility
from repro.eval.metrics import macro_accuracy
from repro.eval.seeding import stratified_seed_indices
from repro.propagation.convergence import linbp_scaling, spectral_radius
from repro.propagation.linbp import linbp, propagate_and_label
from repro.utils.matrix import center_matrix


class TestSpectralRadius:
    def test_diagonal_matrix(self):
        assert spectral_radius(np.diag([3.0, -5.0, 1.0])) == pytest.approx(5.0)

    def test_sparse_adjacency(self, dense_small_adjacency):
        dense_value = spectral_radius(dense_small_adjacency.toarray())
        sparse_value = spectral_radius(dense_small_adjacency)
        assert sparse_value == pytest.approx(dense_value, rel=1e-4)

    def test_doubly_stochastic_radius_is_one(self):
        assert spectral_radius(skew_compatibility(3, h=3.0)) == pytest.approx(1.0)

    def test_centered_h8_radius_from_paper(self):
        # Example C.1: the centered h=8 matrix has spectral radius 0.7.
        centered = center_matrix(skew_compatibility(3, h=8.0))
        assert spectral_radius(centered) == pytest.approx(0.7, abs=1e-6)

    def test_linbp_scaling_satisfies_convergence_condition(self, heterophily_graph):
        centered = center_matrix(skew_compatibility(3, h=3.0))
        epsilon = linbp_scaling(heterophily_graph.adjacency, centered, safety=0.5)
        product = spectral_radius(epsilon * centered) * spectral_radius(
            heterophily_graph.adjacency
        )
        assert product < 1.0


class TestLinBPMechanics:
    def test_output_shapes(self, heterophily_graph):
        prior = heterophily_graph.partial_label_matrix(np.arange(100))
        result = linbp(
            heterophily_graph.adjacency, prior, skew_compatibility(3, h=3.0)
        )
        assert result.beliefs.shape == (heterophily_graph.n_nodes, 3)
        assert result.labels.shape == (heterophily_graph.n_nodes,)

    def test_no_iterations_limit_respected(self, heterophily_graph):
        prior = heterophily_graph.partial_label_matrix(np.arange(100))
        result = linbp(
            heterophily_graph.adjacency,
            prior,
            skew_compatibility(3, h=3.0),
            n_iterations=3,
        )
        assert result.n_iterations <= 3

    def test_beliefs_bounded_with_scaling(self, heterophily_graph):
        prior = heterophily_graph.partial_label_matrix(np.arange(100))
        result = linbp(
            heterophily_graph.adjacency,
            prior,
            skew_compatibility(3, h=3.0),
            n_iterations=30,
        )
        assert np.all(np.isfinite(result.beliefs))
        assert np.max(np.abs(result.beliefs)) < 10.0

    def test_rejects_shape_mismatch(self, heterophily_graph):
        with pytest.raises(ValueError, match="rows"):
            linbp(heterophily_graph.adjacency, np.zeros((5, 3)), skew_compatibility(3))

    def test_rejects_class_mismatch(self, heterophily_graph):
        prior = heterophily_graph.partial_label_matrix(np.arange(10))
        with pytest.raises(ValueError, match="columns"):
            linbp(heterophily_graph.adjacency, prior, skew_compatibility(4))

    def test_explicit_scaling_used(self, heterophily_graph):
        prior = heterophily_graph.partial_label_matrix(np.arange(50))
        result = linbp(
            heterophily_graph.adjacency,
            prior,
            skew_compatibility(3, h=3.0),
            scaling=0.01,
        )
        assert result.scaling == pytest.approx(0.01)


class TestTheorem31Centering:
    """Theorem 3.1: centering X and H does not change the final labels."""

    @pytest.mark.parametrize("h", [3.0, 8.0])
    def test_centered_equals_uncentered_labels(self, heterophily_graph, h):
        seeds = stratified_seed_indices(
            heterophily_graph.labels, fraction=0.05, rng=np.random.default_rng(0)
        )
        prior = heterophily_graph.partial_label_matrix(seeds)
        compatibility = skew_compatibility(3, h=h)
        scaling = linbp_scaling(
            heterophily_graph.adjacency, center_matrix(compatibility), safety=0.5
        )
        centered = linbp(
            heterophily_graph.adjacency,
            prior,
            compatibility,
            center=True,
            scaling=scaling,
            n_iterations=10,
        )
        uncentered = linbp(
            heterophily_graph.adjacency,
            prior,
            compatibility,
            center=False,
            scaling=scaling,
            n_iterations=10,
        )
        informative = centered.labels >= 0
        agreement = np.mean(
            centered.labels[informative] == uncentered.labels[informative]
        )
        assert agreement > 0.99

    def test_shifting_prior_beliefs_keeps_labels(self, heterophily_graph):
        # Adding a constant to X (the c2 shift of Theorem 3.1) cannot change labels.
        seeds = np.arange(0, heterophily_graph.n_nodes, 20)
        prior = heterophily_graph.partial_label_matrix(seeds).toarray()
        compatibility = skew_compatibility(3, h=3.0)
        scaling = linbp_scaling(
            heterophily_graph.adjacency, center_matrix(compatibility), safety=0.5
        )
        base = linbp(
            heterophily_graph.adjacency,
            prior,
            compatibility,
            center=False,
            scaling=scaling,
        )
        shifted = linbp(
            heterophily_graph.adjacency,
            prior + 0.25,
            compatibility,
            center=False,
            scaling=scaling,
        )
        assert np.mean(base.labels == shifted.labels) > 0.99


class TestEndToEndLabeling:
    def test_heterophily_graph_beats_random(self, heterophily_graph):
        seeds = stratified_seed_indices(
            heterophily_graph.labels, fraction=0.05, rng=np.random.default_rng(1)
        )
        partial = heterophily_graph.partial_labels(seeds)
        predicted = propagate_and_label(
            heterophily_graph, partial, skew_compatibility(3, h=3.0)
        )
        score = macro_accuracy(
            heterophily_graph.labels, predicted, 3, exclude_indices=seeds
        )
        assert score > 0.45  # random would give ~0.33

    def test_homophily_graph_with_correct_matrix(self, homophily_graph):
        seeds = stratified_seed_indices(
            homophily_graph.labels, fraction=0.1, rng=np.random.default_rng(2)
        )
        partial = homophily_graph.partial_labels(seeds)
        predicted = propagate_and_label(
            homophily_graph, partial, homophily_compatibility(3, h=5.0)
        )
        score = macro_accuracy(
            homophily_graph.labels, predicted, 3, exclude_indices=seeds
        )
        assert score > 0.6

    def test_wrong_compatibility_hurts(self, strong_heterophily_graph):
        # Using a homophily matrix on a strongly heterophilous graph must be
        # clearly worse than using the true heterophilous matrix.
        graph = strong_heterophily_graph
        seeds = stratified_seed_indices(
            graph.labels, fraction=0.05, rng=np.random.default_rng(3)
        )
        partial = graph.partial_labels(seeds)
        good = propagate_and_label(graph, partial, skew_compatibility(3, h=8.0))
        bad = propagate_and_label(graph, partial, homophily_compatibility(3, h=8.0))
        good_score = macro_accuracy(graph.labels, good, 3, exclude_indices=seeds)
        bad_score = macro_accuracy(graph.labels, bad, 3, exclude_indices=seeds)
        assert good_score > bad_score + 0.1

    def test_seeds_keep_their_labels(self, heterophily_graph):
        seeds = np.arange(0, 200)
        partial = heterophily_graph.partial_labels(seeds)
        predicted = propagate_and_label(
            heterophily_graph, partial, skew_compatibility(3, h=3.0)
        )
        np.testing.assert_array_equal(
            predicted[seeds], heterophily_graph.labels[seeds]
        )

    def test_echo_cancellation_variant_runs(self, heterophily_graph):
        seeds = np.arange(0, 150)
        prior = heterophily_graph.partial_label_matrix(seeds)
        result = linbp(
            heterophily_graph.adjacency,
            prior,
            skew_compatibility(3, h=3.0),
            echo_cancellation=True,
        )
        assert np.all(np.isfinite(result.beliefs))

"""Unit tests for BP and harmonic functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import homophily_compatibility, skew_compatibility
from repro.eval.metrics import macro_accuracy
from repro.eval.seeding import stratified_seed_indices
from repro.propagation.bp import beliefpropagation
from repro.propagation.harmonic import harmonic_functions


class TestBeliefPropagation:
    def test_shapes_and_normalization(self, heterophily_graph):
        prior = heterophily_graph.partial_label_matrix(np.arange(100))
        result = beliefpropagation(
            heterophily_graph.adjacency,
            prior,
            skew_compatibility(3, h=3.0),
            n_iterations=5,
        )
        assert result.beliefs.shape == (heterophily_graph.n_nodes, 3)
        np.testing.assert_allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-9)

    def test_classifies_heterophilous_graph(self, strong_heterophily_graph):
        graph = strong_heterophily_graph
        seeds = stratified_seed_indices(
            graph.labels, fraction=0.1, rng=np.random.default_rng(0)
        )
        prior = graph.partial_label_matrix(seeds)
        result = beliefpropagation(
            graph.adjacency, prior, skew_compatibility(3, h=8.0), n_iterations=10
        )
        score = macro_accuracy(graph.labels, result.labels, 3, exclude_indices=seeds)
        assert score > 0.5

    def test_agrees_with_linbp_labels_mostly(self, heterophily_graph):
        # LinBP is an approximation of BP; on a well-behaved graph the two
        # should agree on a clear majority of nodes.
        from repro.propagation.linbp import linbp

        seeds = stratified_seed_indices(
            heterophily_graph.labels, fraction=0.1, rng=np.random.default_rng(1)
        )
        prior = heterophily_graph.partial_label_matrix(seeds)
        compatibility = skew_compatibility(3, h=3.0)
        bp_result = beliefpropagation(
            heterophily_graph.adjacency, prior, compatibility, n_iterations=10
        )
        linbp_result = linbp(heterophily_graph.adjacency, prior, compatibility)
        agreement = np.mean(bp_result.labels == linbp_result.labels)
        # Both are approximations of each other; require agreement well above
        # the 1/3 chance level, and require both to classify better than random.
        assert agreement > 0.45
        bp_score = macro_accuracy(
            heterophily_graph.labels, bp_result.labels, 3, exclude_indices=seeds
        )
        linbp_score = macro_accuracy(
            heterophily_graph.labels, linbp_result.labels, 3, exclude_indices=seeds
        )
        assert bp_score > 0.4
        assert linbp_score > 0.4

    def test_empty_graph(self):
        from repro.graph.graph import Graph

        graph = Graph.from_edges([], n_nodes=3, labels=np.array([0, 1, 0]), n_classes=2)
        result = beliefpropagation(
            graph.adjacency, graph.label_matrix(), homophily_compatibility(2)
        )
        assert result.converged

    def test_damping_validation(self, triangle_graph):
        with pytest.raises(ValueError, match="damping"):
            beliefpropagation(
                triangle_graph.adjacency,
                triangle_graph.label_matrix(),
                skew_compatibility(3),
                damping=1.5,
            )

    def test_negative_potential_rejected(self, triangle_graph):
        with pytest.raises(ValueError, match="non-negative"):
            beliefpropagation(
                triangle_graph.adjacency,
                triangle_graph.label_matrix(),
                np.array([[0.5, -0.5, 1.0], [-0.5, 1.0, 0.5], [1.0, 0.5, -0.5]]),
            )


class TestHomophilyBaselines:
    """Harmonic functions work on homophilous graphs but fail on
    heterophilous ones (the Fig. 6i contrast)."""

    @pytest.mark.parametrize(
        "method",
        [
            lambda graph, partial: harmonic_functions(graph.adjacency, partial, 3),
        ],
        ids=["harmonic"],
    )
    def test_good_on_homophily(self, homophily_graph, method):
        seeds = stratified_seed_indices(
            homophily_graph.labels, fraction=0.1, rng=np.random.default_rng(0)
        )
        partial = homophily_graph.partial_labels(seeds)
        predicted = method(homophily_graph, partial)
        score = macro_accuracy(
            homophily_graph.labels, predicted, 3, exclude_indices=seeds
        )
        assert score > 0.55

    @pytest.mark.parametrize(
        "method",
        [
            lambda graph, partial: harmonic_functions(graph.adjacency, partial, 3),
        ],
        ids=["harmonic"],
    )
    def test_poor_on_strong_heterophily(self, strong_heterophily_graph, method):
        graph = strong_heterophily_graph
        seeds = stratified_seed_indices(
            graph.labels, fraction=0.05, rng=np.random.default_rng(1)
        )
        partial = graph.partial_labels(seeds)
        predicted = method(graph, partial)
        homophily_score = macro_accuracy(
            graph.labels, predicted, 3, exclude_indices=seeds
        )
        # LinBP with the true heterophilous matrix must clearly beat it.
        from repro.propagation.linbp import propagate_and_label

        linbp_predicted = propagate_and_label(graph, partial, skew_compatibility(3, h=8.0))
        linbp_score = macro_accuracy(
            graph.labels, linbp_predicted, 3, exclude_indices=seeds
        )
        assert linbp_score > homophily_score + 0.1

    def test_seeds_clamped_harmonic(self, homophily_graph):
        seeds = np.arange(0, 100)
        partial = homophily_graph.partial_labels(seeds)
        predicted = harmonic_functions(homophily_graph.adjacency, partial, 3)
        np.testing.assert_array_equal(predicted[seeds], homophily_graph.labels[seeds])

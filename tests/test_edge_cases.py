"""Failure-injection and edge-case tests across the pipeline.

These exercise the awkward inputs the main test files don't: isolated nodes,
missing classes in the seed set, single-class graphs, weighted edges,
disconnected components and degenerate seed counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.core.estimators import DCE, DCEr, HoldoutEstimator, LCE, MCE
from repro.core.statistics import neighbor_statistics, observed_statistics
from repro.eval.experiment import run_experiment
from repro.eval.metrics import macro_accuracy
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph
from repro.propagation.linbp import linbp, propagate_and_label


@pytest.fixture(scope="module")
def graph_with_isolated_nodes():
    """A planted graph plus 20 isolated nodes appended at the end."""
    base = generate_graph(600, 4_800, skew_compatibility(3, h=3.0), seed=70)
    import scipy.sparse as sp

    n_extra = 20
    n_total = base.n_nodes + n_extra
    adjacency = sp.lil_matrix((n_total, n_total))
    adjacency[: base.n_nodes, : base.n_nodes] = base.adjacency
    labels = np.concatenate([base.labels, np.zeros(n_extra, dtype=np.int64)])
    return Graph(adjacency=adjacency.tocsr(), labels=labels, n_classes=3)


class TestIsolatedNodes:
    def test_estimation_ignores_isolated_nodes(self, graph_with_isolated_nodes):
        seed_labels = graph_with_isolated_nodes.partial_labels(np.arange(0, 600, 5))
        result = DCEr(seed=0, n_restarts=4).fit(graph_with_isolated_nodes, seed_labels)
        assert np.all(np.isfinite(result.compatibility))

    def test_propagation_leaves_isolated_nodes_unlabeled(self, graph_with_isolated_nodes):
        seed_labels = graph_with_isolated_nodes.partial_labels(np.arange(0, 600, 5))
        predicted = propagate_and_label(
            graph_with_isolated_nodes, seed_labels, skew_compatibility(3, h=3.0)
        )
        isolated = np.arange(600, 620)
        assert np.all(predicted[isolated] == -1)

    def test_experiment_still_scores(self, graph_with_isolated_nodes):
        result = run_experiment(
            graph_with_isolated_nodes, MCE(), label_fraction=0.1, seed=0
        )
        assert 0.0 <= result.accuracy <= 1.0


class TestMissingClassesInSeeds:
    def test_estimators_handle_class_with_no_seed(self, heterophily_graph):
        # Seeds drawn only from classes 0 and 1; class 2 has zero labeled nodes.
        labels = heterophily_graph.labels
        seeds = np.concatenate(
            [np.flatnonzero(labels == 0)[:20], np.flatnonzero(labels == 1)[:20]]
        )
        partial = heterophily_graph.partial_labels(seeds)
        for estimator in (MCE(), DCE(), DCEr(seed=0, n_restarts=3)):
            result = estimator.fit(heterophily_graph, partial)
            assert np.all(np.isfinite(result.compatibility))
            # Rows still sum to one despite the empty class.
            np.testing.assert_allclose(
                result.compatibility.sum(axis=1), 1.0, atol=1e-6
            )

    def test_propagation_with_missing_class_runs(self, heterophily_graph):
        labels = heterophily_graph.labels
        seeds = np.flatnonzero(labels == 0)[:30]
        partial = heterophily_graph.partial_labels(seeds)
        predicted = propagate_and_label(
            heterophily_graph, partial, skew_compatibility(3, h=3.0)
        )
        assert predicted.shape == labels.shape


class TestDegenerateSeedCounts:
    def test_single_seed_node(self, heterophily_graph):
        partial = heterophily_graph.partial_labels(np.array([0]))
        result = DCEr(seed=0, n_restarts=3).fit(heterophily_graph, partial)
        assert np.all(np.isfinite(result.compatibility))

    def test_all_nodes_seeded(self, heterophily_graph):
        result = run_experiment(
            heterophily_graph, MCE(), label_fraction=1.0, seed=0
        )
        # With every node seeded there is nothing left to evaluate.
        assert result.accuracy in (0.0, 1.0) or 0.0 <= result.accuracy <= 1.0

    def test_two_seeds_same_class(self, heterophily_graph):
        labels = heterophily_graph.labels
        seeds = np.flatnonzero(labels == 1)[:2]
        partial = heterophily_graph.partial_labels(seeds)
        counts = neighbor_statistics(
            heterophily_graph.adjacency,
            heterophily_graph.partial_label_matrix(seeds),
        )
        assert counts.shape == (3, 3)
        result = MCE().fit(heterophily_graph, partial)
        assert np.all(np.isfinite(result.compatibility))


class TestWeightedAndTinyGraphs:
    def test_weighted_edges_respected_in_statistics(self):
        graph = Graph.from_edges(
            [(0, 1), (1, 2)], n_nodes=3, labels=np.array([0, 1, 0]),
            n_classes=2, weights=[2.0, 1.0],
        )
        counts = neighbor_statistics(graph.adjacency, graph.label_matrix())
        # Edge (0,1) has weight 2 and joins classes 0-1, edge (1,2) weight 1.
        np.testing.assert_allclose(counts, [[0, 3], [3, 0]])

    def test_two_node_graph_end_to_end(self):
        graph = Graph.from_edges(
            [(0, 1)], n_nodes=2, labels=np.array([0, 1]), n_classes=2
        )
        partial = np.array([0, -1])
        result = linbp(
            graph.adjacency, graph.partial_label_matrix(np.array([0])),
            skew_compatibility(2, h=4.0),
        )
        assert result.beliefs.shape == (2, 2)
        predicted = propagate_and_label(graph, partial, skew_compatibility(2, h=4.0))
        assert predicted[0] == 0

    def test_single_class_graph(self):
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (2, 0)], n_nodes=3, labels=np.zeros(3, dtype=int),
            n_classes=1,
        )
        stats = observed_statistics(graph.adjacency, graph.label_matrix(), max_length=2)
        assert stats[0].shape == (1, 1)
        np.testing.assert_allclose(stats[0], [[1.0]])

    @pytest.mark.parametrize(
        "estimator",
        [DCE(), DCEr(seed=0), LCE(), MCE(), HoldoutEstimator(seed=0)],
        ids=["DCE", "DCEr", "LCE", "MCE", "Holdout"],
    )
    def test_single_class_fit_skips_the_optimizer(self, estimator, capfd):
        # k=1 leaves no free parameter; handing LAPACK an empty vector made
        # it print "illegal value" errors.
        graph = Graph.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)], n_nodes=4,
            labels=np.zeros(4, dtype=int), n_classes=1,
        )
        result = estimator.fit(graph, np.array([0, -1, 0, -1]))
        assert np.array_equal(result.compatibility, [[1.0]])
        captured = capfd.readouterr()
        assert captured.err == ""
        assert captured.out == ""


class TestDisconnectedComponents:
    def test_statistics_sum_over_components(self):
        component_a = [(0, 1), (1, 2)]
        component_b = [(3, 4), (4, 5)]
        graph = Graph.from_edges(
            component_a + component_b, n_nodes=6,
            labels=np.array([0, 1, 0, 1, 0, 1]), n_classes=2,
        )
        counts = neighbor_statistics(graph.adjacency, graph.label_matrix())
        assert counts.sum() == pytest.approx(2 * graph.n_edges)

    def test_propagation_confined_to_seeded_component(self):
        graph = Graph.from_edges(
            [(0, 1), (2, 3)], n_nodes=4, labels=np.array([0, 1, 0, 1]), n_classes=2
        )
        partial = np.array([0, -1, -1, -1])
        predicted = propagate_and_label(graph, partial, skew_compatibility(2, h=4.0))
        assert predicted[1] >= 0          # reached by propagation
        assert predicted[2] == -1 and predicted[3] == -1  # unreachable

    def test_macro_accuracy_with_unreached_nodes(self):
        true = np.array([0, 1, 0, 1])
        predicted = np.array([0, 1, -1, -1])
        assert macro_accuracy(true, predicted, 2) == pytest.approx(0.5)

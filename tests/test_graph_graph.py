"""Unit tests for the Graph container."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.graph import Graph, labels_from_one_hot, one_hot_labels


class TestOneHot:
    def test_shapes(self):
        matrix = one_hot_labels(np.array([0, 1, -1]), 2)
        assert matrix.shape == (3, 2)

    def test_unlabeled_rows_are_zero(self):
        matrix = one_hot_labels(np.array([0, -1, 1]), 2).toarray()
        np.testing.assert_allclose(matrix[1], [0.0, 0.0])

    def test_labeled_rows_one_hot(self):
        matrix = one_hot_labels(np.array([2, 0]), 3).toarray()
        np.testing.assert_allclose(matrix, [[0, 0, 1], [1, 0, 0]])

    def test_round_trip_with_argmax(self):
        labels = np.array([0, 2, 1, -1])
        matrix = one_hot_labels(labels, 3).toarray()
        recovered = labels_from_one_hot(matrix)
        np.testing.assert_array_equal(recovered, labels)

    def test_labels_from_one_hot_zero_rows(self):
        beliefs = np.zeros((2, 3))
        np.testing.assert_array_equal(labels_from_one_hot(beliefs), [-1, -1])

    def test_labels_from_one_hot_negative_beliefs(self):
        beliefs = np.array([[-0.5, -0.1, -0.9]])
        assert labels_from_one_hot(beliefs)[0] == 1


class TestGraphBasics:
    def test_counts(self, triangle_graph):
        assert triangle_graph.n_nodes == 4
        assert triangle_graph.n_edges == 4
        assert triangle_graph.n_classes == 3

    def test_average_degree(self, triangle_graph):
        assert triangle_graph.average_degree == pytest.approx(2.0)

    def test_degrees(self, triangle_graph):
        np.testing.assert_allclose(triangle_graph.degrees, [2, 2, 3, 1])

    def test_degree_matrix_diagonal(self, triangle_graph):
        np.testing.assert_allclose(
            triangle_graph.degree_matrix.diagonal(), triangle_graph.degrees
        )

    def test_neighbors(self, triangle_graph):
        assert set(triangle_graph.neighbors(2)) == {0, 1, 3}

    def test_class_counts_and_prior(self, triangle_graph):
        np.testing.assert_array_equal(triangle_graph.class_counts(), [2, 1, 1])
        np.testing.assert_allclose(triangle_graph.class_prior(), [0.5, 0.25, 0.25])

    def test_repr_contains_name(self, triangle_graph):
        assert "Graph(" in repr(triangle_graph)


class TestGraphConstruction:
    def test_from_edges_symmetrizes(self):
        graph = Graph.from_edges([(0, 1)], n_nodes=2)
        assert graph.adjacency[0, 1] == 1.0
        assert graph.adjacency[1, 0] == 1.0

    def test_from_edges_drops_self_loops(self):
        graph = Graph.from_edges([(0, 0), (0, 1)], n_nodes=2)
        assert graph.adjacency[0, 0] == 0.0
        assert graph.n_edges == 1

    def test_from_edges_deduplicates(self):
        graph = Graph.from_edges([(0, 1), (1, 0), (0, 1)], n_nodes=2)
        assert graph.adjacency[0, 1] == 1.0

    def test_from_edges_empty(self):
        graph = Graph.from_edges([], n_nodes=3)
        assert graph.n_edges == 0
        assert graph.n_nodes == 3

    def test_from_edges_infers_n_nodes(self):
        graph = Graph.from_edges([(0, 4)])
        assert graph.n_nodes == 5

    def test_from_edges_weighted(self):
        graph = Graph.from_edges([(0, 1)], n_nodes=2, weights=[2.5])
        assert graph.adjacency[0, 1] == 2.5

    def test_from_edges_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Graph.from_edges(np.array([[0, 1, 2]]))

    def test_from_dense(self):
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = Graph.from_dense(dense)
        assert graph.n_edges == 1

    def test_self_loops_count_once_each(self):
        graph = Graph.from_dense(np.array([[1.0, 0, 0], [0, 1, 1], [0, 1, 0]]))
        assert graph.n_edges == 3
        assert graph.average_degree == pytest.approx(2.0)
        assert Graph.from_dense(np.eye(3)).n_edges == 3

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_infers_n_classes_from_labels(self):
        graph = Graph.from_edges([(0, 1)], n_nodes=2, labels=np.array([0, 3]))
        assert graph.n_classes == 4

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 1)], n_nodes=2, labels=np.array([0, 1, 2]))


class TestLabelMatrices:
    def test_label_matrix_full(self, triangle_graph):
        matrix = triangle_graph.label_matrix().toarray()
        assert matrix.sum() == 4

    def test_partial_label_matrix(self, triangle_graph):
        matrix = triangle_graph.partial_label_matrix(np.array([0, 2])).toarray()
        assert matrix.sum() == 2
        assert matrix[1].sum() == 0

    def test_partial_labels_vector(self, triangle_graph):
        partial = triangle_graph.partial_labels(np.array([1]))
        np.testing.assert_array_equal(partial, [-1, 1, -1, -1])

    def test_require_labels_raises_without_labels(self):
        graph = Graph.from_edges([(0, 1)], n_nodes=2)
        with pytest.raises(ValueError, match="no ground-truth labels"):
            graph.require_labels()

    def test_label_matrix_requires_n_classes(self):
        graph = Graph.from_edges([(0, 1)], n_nodes=2)
        with pytest.raises(ValueError):
            graph.label_matrix(np.array([0, 1]))


class TestSubgraphs:
    def test_subgraph_shapes(self, triangle_graph):
        sub = triangle_graph.subgraph(np.array([0, 1, 2]))
        assert sub.n_nodes == 3
        assert sub.n_edges == 3

    def test_subgraph_keeps_labels(self, triangle_graph):
        sub = triangle_graph.subgraph(np.array([2, 3]))
        np.testing.assert_array_equal(sub.labels, [2, 0])

    def test_largest_connected_component(self, disconnected_graph):
        component = disconnected_graph.largest_connected_component()
        assert component.n_nodes == 2

    def test_largest_connected_component_connected_graph(self, triangle_graph):
        assert triangle_graph.largest_connected_component() is triangle_graph

    def test_copy_is_independent(self, triangle_graph):
        duplicate = triangle_graph.copy()
        duplicate.labels[0] = 2
        assert triangle_graph.labels[0] == 0

    def test_edge_list_upper_triangle(self, triangle_graph):
        edges = triangle_graph.edge_list()
        assert edges.shape == (4, 2)
        assert np.all(edges[:, 0] < edges[:, 1])


class TestSubgraphRemappingWithIsolatedNodes:
    """Label and seed-index remapping on graphs containing isolated nodes."""

    @pytest.fixture()
    def graph_with_isolates(self) -> Graph:
        # Component A: 0-1-2 (labels 0,1,0); isolated: 3 (label 1), 6 (-1);
        # component B: 4-5 (labels 1,1).
        adjacency = Graph.from_edges([(0, 1), (1, 2), (4, 5)], n_nodes=7).adjacency
        labels = np.array([0, 1, 0, 1, 1, 1, -1])
        return Graph(adjacency=adjacency, labels=labels, n_classes=2)

    def test_subgraph_relabels_nodes_contiguously(self, graph_with_isolates):
        sub = graph_with_isolates.subgraph(np.array([4, 5, 6]))
        assert sub.n_nodes == 3
        # Old edge (4, 5) must appear as (0, 1) in the new numbering.
        assert sub.adjacency[0, 1] == 1.0
        assert sub.adjacency[2].nnz == 0  # node 6 stays isolated

    def test_subgraph_remaps_labels_including_unknown(self, graph_with_isolates):
        sub = graph_with_isolates.subgraph(np.array([6, 3, 0]))
        np.testing.assert_array_equal(sub.labels, [-1, 1, 0])

    def test_subgraph_with_isolated_nodes_keeps_n_classes(self, graph_with_isolates):
        sub = graph_with_isolates.subgraph(np.array([3, 6]))
        assert sub.n_classes == 2
        assert sub.n_edges == 0

    def test_seed_indices_survive_remapping(self, graph_with_isolates):
        # Seeds given in original ids must select the same nodes after the
        # subgraph renumbering: original seed 4 becomes index 1 of [2, 4, 5].
        keep = np.array([2, 4, 5])
        sub = graph_with_isolates.subgraph(keep)
        original_seeds = np.array([4])
        remapped = np.flatnonzero(np.isin(keep, original_seeds))
        partial = sub.partial_labels(remapped)
        np.testing.assert_array_equal(partial, [-1, 1, -1])

    def test_lcc_drops_isolated_nodes_and_remaps(self, graph_with_isolates):
        component = graph_with_isolates.largest_connected_component()
        assert component.n_nodes == 3
        np.testing.assert_array_equal(component.labels, [0, 1, 0])
        # The 0-1-2 path survives under new ids 0-1-2.
        assert component.adjacency[0, 1] == 1.0
        assert component.adjacency[1, 2] == 1.0
        assert component.adjacency[0, 2] == 0.0

    def test_lcc_on_all_isolated_graph(self):
        adjacency = sp.csr_matrix((4, 4))
        graph = Graph(adjacency=adjacency, labels=np.array([0, 1, 0, 1]), n_classes=2)
        component = graph.largest_connected_component()
        assert component.n_nodes == 1


class TestOperatorCacheInvalidation:
    def test_in_place_mutation_served_stale_until_invalidated(self, triangle_graph):
        graph = triangle_graph.copy()
        degrees_before = graph.operators.degrees.copy()
        # In-place CSR mutation: the cache keys on object identity and
        # cannot notice this on its own.
        graph.adjacency.data[:] = 2.0
        np.testing.assert_allclose(graph.operators.degrees, degrees_before)
        graph.invalidate_operators()
        np.testing.assert_allclose(graph.operators.degrees, 2.0 * degrees_before)

    def test_invalidate_without_cache_is_noop(self, triangle_graph):
        graph = triangle_graph.copy()
        graph.invalidate_operators()  # nothing cached yet: must not raise

    def test_set_operators_requires_matching_adjacency(self, triangle_graph):
        from repro.graph.operators import GraphOperators

        graph = triangle_graph.copy()
        foreign = GraphOperators(triangle_graph.adjacency.copy())
        with pytest.raises(ValueError, match="different adjacency"):
            graph.set_operators(foreign)
        owned = GraphOperators(graph.adjacency)
        graph.set_operators(owned)
        assert graph.operators is owned

    def test_replacing_adjacency_object_still_invalidates(self, triangle_graph):
        graph = triangle_graph.copy()
        first = graph.operators
        graph.adjacency = graph.adjacency.copy()
        assert graph.operators is not first

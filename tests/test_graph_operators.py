"""Tests for the cached graph-operator layer (GraphOperators)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.propagation.convergence as convergence
from repro.core.compatibility import skew_compatibility
from repro.core.estimators import GoldStandard
from repro.eval.experiment import run_experiment
from repro.graph.graph import Graph
from repro.graph.operators import GraphOperators, operators_for
from repro.propagation.linbp import propagate_and_label
from repro.utils.matrix import (
    column_normalized_adjacency,
    degree_vector,
    row_normalized_adjacency,
    safe_reciprocal,
    symmetric_normalized_adjacency,
)


@pytest.fixture()
def operators(heterophily_graph):
    return heterophily_graph.operators


class TestNormalizations:
    def test_row_normalized_rows_sum_to_one(self, operators):
        sums = np.asarray(operators.row_normalized.sum(axis=1)).ravel()
        connected = operators.degrees > 0
        np.testing.assert_allclose(sums[connected], 1.0, atol=1e-12)

    def test_column_normalized_columns_sum_to_one(self, operators):
        sums = np.asarray(operators.column_normalized.sum(axis=0)).ravel()
        connected = operators.degrees > 0
        np.testing.assert_allclose(sums[connected], 1.0, atol=1e-12)

    def test_symmetric_normalized_matches_definition(self, operators):
        inv_sqrt = np.sqrt(safe_reciprocal(degree_vector(operators.adjacency)))
        expected = sp.diags(inv_sqrt) @ operators.adjacency @ sp.diags(inv_sqrt)
        difference = (operators.symmetric_normalized - expected.tocsr()).toarray()
        np.testing.assert_allclose(difference, 0.0, atol=1e-12)

    def test_isolated_nodes_stay_zero(self):
        graph = Graph.from_edges([(0, 1)], n_nodes=3)
        operators = graph.operators
        assert operators.row_normalized[2].nnz == 0
        assert operators.inverse_degrees[2] == 0.0

    def test_matrix_helpers_match_operator_layer(self, heterophily_graph):
        adjacency = heterophily_graph.adjacency
        operators = heterophily_graph.operators
        for helper, attribute in (
            (row_normalized_adjacency, "row_normalized"),
            (column_normalized_adjacency, "column_normalized"),
            (symmetric_normalized_adjacency, "symmetric_normalized"),
        ):
            difference = (helper(adjacency) - getattr(operators, attribute)).toarray()
            np.testing.assert_allclose(difference, 0.0, atol=0.0)


class TestCaching:
    def test_same_object_returned(self, operators):
        assert operators.row_normalized is operators.row_normalized
        assert operators.symmetric_normalized is operators.symmetric_normalized
        assert operators.column_normalized is operators.column_normalized

    def test_graph_property_is_stable(self, heterophily_graph):
        assert heterophily_graph.operators is heterophily_graph.operators

    def test_graph_property_rebuilds_on_new_adjacency(self, heterophily_graph):
        graph = heterophily_graph.copy()
        first = graph.operators
        graph.adjacency = graph.adjacency.copy()
        assert graph.operators is not first

    def test_operators_for_raw_adjacency(self, heterophily_graph):
        operators = operators_for(heterophily_graph.adjacency)
        assert isinstance(operators, GraphOperators)
        assert operators.n_nodes == heterophily_graph.n_nodes

    def test_operators_for_graph_reuses_cache(self, heterophily_graph):
        assert operators_for(heterophily_graph) is heterophily_graph.operators


class TestSpectralRadiusMemoization:
    """Satellite regression: the second LinBP call on the same graph must not
    re-run the spectral-radius computation (cold Lanczos)."""

    def _count_radius_calls(self, monkeypatch):
        calls = {"adjacency": 0}
        original = convergence.spectral_radius

        def counting(matrix, seed=0):
            if sp.issparse(matrix):
                calls["adjacency"] += 1
            return original(matrix, seed=seed)

        monkeypatch.setattr(convergence, "spectral_radius", counting)
        return calls

    def test_operator_layer_computes_radius_once(self, heterophily_graph, monkeypatch):
        calls = self._count_radius_calls(monkeypatch)
        operators = heterophily_graph.copy().operators
        first = operators.spectral_radius()
        second = operators.spectral_radius()
        assert first == second
        assert calls["adjacency"] == 1

    def test_second_linbp_call_does_no_power_iteration(
        self, heterophily_graph, monkeypatch
    ):
        calls = self._count_radius_calls(monkeypatch)
        graph = heterophily_graph.copy()
        compatibility = skew_compatibility(3, h=3.0)
        seeds = np.arange(0, graph.n_nodes, 10)
        partial = graph.partial_labels(seeds)

        first = propagate_and_label(graph, partial, compatibility)
        assert calls["adjacency"] == 1
        second = propagate_and_label(graph, partial, compatibility)
        assert calls["adjacency"] == 1  # no recomputation on the same graph
        np.testing.assert_array_equal(first, second)

    def test_repeated_experiments_share_radius(self, heterophily_graph, monkeypatch):
        calls = self._count_radius_calls(monkeypatch)
        graph = heterophily_graph.copy()
        for seed in range(3):
            run_experiment(graph, GoldStandard(), label_fraction=0.1, seed=seed)
        assert calls["adjacency"] == 1

    def test_scaling_memoized_per_compatibility(self, heterophily_graph, monkeypatch):
        calls = self._count_radius_calls(monkeypatch)
        operators = heterophily_graph.copy().operators
        h3 = skew_compatibility(3, h=3.0) - 1.0 / 3.0
        h8 = skew_compatibility(3, h=8.0) - 1.0 / 3.0
        first = operators.linbp_scaling(h3)
        again = operators.linbp_scaling(h3)
        other = operators.linbp_scaling(h8)
        assert first == again
        assert first != other
        assert calls["adjacency"] == 1

    def test_scaling_matches_uncached_function(self, heterophily_graph):
        centered = skew_compatibility(3, h=3.0) - 1.0 / 3.0
        cached = heterophily_graph.copy().operators.linbp_scaling(centered, safety=0.5)
        direct = convergence.linbp_scaling(
            heterophily_graph.adjacency, centered, safety=0.5
        )
        assert cached == pytest.approx(direct, rel=1e-9)


class TestDeltaAwareEvolution:
    def test_evolve_primes_degrees_incrementally(self, heterophily_graph):
        operators = heterophily_graph.operators
        _ = operators.degrees  # populate the cache
        new_adjacency = heterophily_graph.adjacency.copy()
        new_adjacency.data[:] = new_adjacency.data  # same weights, new object
        delta = np.zeros(heterophily_graph.n_nodes)
        evolved = operators.evolve(new_adjacency, delta_degrees=delta)
        assert "degrees" in evolved._cache
        np.testing.assert_allclose(evolved.degrees, operators.degrees)

    def test_evolve_applies_degree_delta(self, operators):
        n = operators.n_nodes
        _ = operators.degrees
        delta = np.zeros(n)
        delta[0] = 2.5
        evolved = operators.evolve(operators.adjacency, delta_degrees=delta)
        assert evolved.degrees[0] == pytest.approx(operators.degrees[0] + 2.5)

    def test_evolve_supports_grown_graphs(self, operators):
        import scipy.sparse as sp

        n = operators.n_nodes
        _ = operators.degrees
        grown = sp.csr_matrix((n + 2, n + 2))
        delta = np.zeros(n + 2)
        evolved = operators.evolve(grown, delta_degrees=delta)
        assert evolved.degrees.shape == (n + 2,)
        np.testing.assert_allclose(evolved.degrees[:n], operators.degrees)
        np.testing.assert_allclose(evolved.degrees[n:], 0.0)

    def test_evolve_rejects_short_delta(self, operators):
        import scipy.sparse as sp

        n = operators.n_nodes
        _ = operators.degrees
        grown = sp.csr_matrix((n + 2, n + 2))
        with pytest.raises(ValueError, match="delta_degrees"):
            operators.evolve(grown, delta_degrees=np.zeros(n))

    def test_evolve_without_cached_degrees_starts_cold(self, heterophily_graph):
        from repro.graph.operators import GraphOperators

        fresh = GraphOperators(heterophily_graph.adjacency)
        evolved = fresh.evolve(
            heterophily_graph.adjacency, delta_degrees=np.zeros(fresh.n_nodes)
        )
        assert "degrees" not in evolved._cache

    def test_prime_spectral_radius_skips_computation(self, heterophily_graph, monkeypatch):
        import repro.propagation.convergence as convergence
        from repro.graph.operators import GraphOperators

        operators = GraphOperators(heterophily_graph.adjacency)
        operators.prime_spectral_radius(3.25)

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("primed radius should bypass the solver")

        monkeypatch.setattr(convergence, "spectral_radius", boom)
        assert operators.spectral_radius() == 3.25

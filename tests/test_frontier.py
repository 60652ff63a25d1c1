"""Frontier W-products and the midpoint fold of the path statistics.

* :func:`repro.utils.matrix.frontier_product` is bitwise ``W @ block`` on
  both sides of its quarter-of-nnz cut, and its reach covers the product;
* the folded :func:`repro.core.statistics.path_statistics` equals
  ``X^T W_NB^(l) X`` / ``X^T W^l X`` from the explicit ``n x n`` matrices
  for every ``max_length`` up to 8 -- exactly on integer counts;
* on a 1%-labelled graph the statistics at ``max_length = 5`` make one
  full-size product with ``W`` (five unfolded), and a cold 10-sweep LinBP
  makes eight (ten without the frontier) with bitwise the same beliefs.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.compatibility import skew_compatibility
from repro.core.nonbacktracking import explicit_nb_walk_matrices, explicit_walk_matrices
from repro.core.statistics import path_statistics
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph, one_hot_labels
from repro.propagation import kernels
from repro.propagation.linbp import LinBPPropagator
from repro.utils.matrix import FRONTIER_SHARE, frontier_product

MAX_LENGTH = 8


# ------------------------------------------------------------ the product
@pytest.fixture(scope="module")
def weighted_adjacency():
    rng = np.random.default_rng(4)
    upper = sp.random(400, 400, density=0.02, random_state=5, format="csr")
    adjacency = (upper + upper.T).tocsr()
    adjacency.data = np.round(adjacency.data * 7.0, 3) + 0.1
    assert adjacency.has_sorted_indices
    return adjacency, rng


class TestFrontierProduct:
    @pytest.mark.parametrize("n_rows", [1, 5, 40, 400])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_the_plain_product(self, weighted_adjacency, n_rows, dtype):
        adjacency, rng = weighted_adjacency
        adjacency = adjacency.astype(dtype)
        support = np.zeros(adjacency.shape[0], dtype=bool)
        support[rng.choice(adjacency.shape[0], n_rows, replace=False)] = True
        block = np.zeros((adjacency.shape[0], 3), dtype=dtype)
        block[support] = rng.standard_normal((n_rows, 3))

        product, reach = frontier_product(adjacency, block, support)
        expected = np.asarray(adjacency @ block)
        assert product.dtype == expected.dtype
        assert np.array_equal(product, expected)
        touched = np.diff(adjacency.indptr)[support].sum()
        if touched <= FRONTIER_SHARE * adjacency.nnz:
            assert reach is not None
            assert not (expected.any(axis=1) & ~reach).any()
        else:
            assert reach is None

    def test_cut_sides_are_both_exercised(self, weighted_adjacency):
        adjacency, _ = weighted_adjacency
        block = np.ones((adjacency.shape[0], 2))
        one_row = np.zeros(adjacency.shape[0], dtype=bool)
        one_row[0] = True
        assert frontier_product(adjacency, block * one_row[:, None], one_row)[1] is not None
        all_rows = np.ones(adjacency.shape[0], dtype=bool)
        assert frontier_product(adjacency, block, all_rows)[1] is None
        product, reach = frontier_product(adjacency, block, None)
        assert reach is None
        assert np.array_equal(product, adjacency @ block)


# --------------------------------------------------------------- the fold
@st.composite
def labeled_graphs(draw):
    n_nodes = draw(st.integers(1, 10))
    node = st.integers(0, n_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=25))
    weighted = draw(st.booleans())
    weights = (
        draw(st.lists(st.floats(0.1, 3.0), min_size=len(edges), max_size=len(edges)))
        if weighted else None
    )
    graph = Graph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2),
                             n_nodes=n_nodes, weights=weights)
    k = draw(st.integers(1, 4))
    soft = draw(st.booleans())
    labels = np.zeros((n_nodes, k))
    for row in range(n_nodes):
        kind = draw(st.sampled_from(["unlabeled", "one-hot", "soft"] if soft
                                    else ["unlabeled", "one-hot"]))
        if kind == "one-hot":
            labels[row, draw(st.integers(0, k - 1))] = 1.0
        elif kind == "soft":
            labels[row] = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    return graph.adjacency, labels, not weighted and not soft


class TestFoldedPathStatistics:
    @settings(max_examples=150, deadline=None)
    @given(case=labeled_graphs())
    def test_matches_the_explicit_walk_matrices(self, case):
        adjacency, labels, integral = case
        # |X|^T (W + D + I)^l |X| bounds every term either recursion or the
        # fold adds, so 1e-12 of it is a relative bound on the rounding.
        dense = adjacency.toarray()
        bound = dense + np.diag(dense.sum(axis=1) + 1.0)
        scales = [
            float((labels.T @ np.linalg.matrix_power(bound, length) @ labels).max(initial=0.0))
            for length in range(1, MAX_LENGTH + 1)
        ]
        explicit = {
            True: explicit_nb_walk_matrices(adjacency, MAX_LENGTH),
            False: explicit_walk_matrices(adjacency, MAX_LENGTH),
        }
        for non_backtracking, matrices in explicit.items():
            reference = [labels.T @ (matrix @ labels) for matrix in matrices]
            for max_length in range(1, MAX_LENGTH + 1):
                folded = path_statistics(
                    adjacency, labels, max_length, non_backtracking=non_backtracking
                )
                assert len(folded) == max_length
                for mine, expected, scale in zip(folded, reference, scales):
                    if integral:
                        assert np.array_equal(mine, expected)
                    else:
                        np.testing.assert_allclose(mine, expected, rtol=0, atol=1e-12 * scale)

    def test_empty_seed_set_gives_zero_sketches(self):
        adjacency = Graph.from_edges([(0, 1), (1, 2), (2, 3)], n_nodes=4).adjacency
        for non_backtracking in (True, False):
            for sketch in path_statistics(adjacency, np.zeros((4, 2)), 6, non_backtracking):
                assert not sketch.any()


# ------------------------------------------------------ full-size products
class CountingCSR(sp.csr_matrix):
    """A CSR ``W`` that counts its full-size products with an ``n x k`` block."""

    full_products = 0

    def _matmul_multivector(self, other):
        if self.shape[0] == self.shape[1] == other.shape[0]:
            CountingCSR.full_products += 1
        return super()._matmul_multivector(other)


@pytest.fixture(scope="module")
def sparse_labelled():
    """3,000 nodes of mean degree 10 with 1% of them labelled."""
    graph = generate_graph(3_000, 15_000, skew_compatibility(3, h=3.0), seed=3)
    seeds = stratified_seed_labels(graph.labels, 0.01, rng=0)
    return graph, seeds


@pytest.fixture
def numpy_kernels():
    """The scipy-composed dense sweep, so both runs share one arithmetic."""
    previous = kernels.active_backend()
    kernels.set_backend("numpy")
    yield
    kernels.set_backend(previous)


class TestFullSizeProducts:
    def test_statistics_make_one_full_product_at_length_five(self, sparse_labelled):
        graph, seeds = sparse_labelled
        counting = CountingCSR(graph.adjacency)
        labels = one_hot_labels(seeds, 3)
        CountingCSR.full_products = 0
        folded = path_statistics(counting, labels, 5)
        assert CountingCSR.full_products <= 1
        assert CountingCSR.full_products > 0  # the spy does see products
        # Algorithm 4.4 unfolded, one plain product per length.
        adjacency, x = graph.adjacency, labels.toarray()
        degrees = graph.degrees[:, None]
        counts = [adjacency @ x, adjacency @ (adjacency @ x) - degrees * x]
        while len(counts) < 5:
            counts.append(adjacency @ counts[-1] - (degrees - 1.0) * counts[-2])
        for mine, count in zip(folded, counts):
            assert np.array_equal(mine, x.T @ count)

    def test_cold_linbp_makes_at_most_eight_full_sweeps(
        self, sparse_labelled, numpy_kernels, monkeypatch
    ):
        graph, seeds = sparse_labelled
        compatibility = skew_compatibility(3, h=3.0)
        counting = Graph(adjacency=CountingCSR(graph.adjacency), n_classes=3)
        assert isinstance(counting.adjacency, CountingCSR)
        propagator = LinBPPropagator(max_iterations=10, tolerance=0.0)
        CountingCSR.full_products = 0
        result = propagator.propagate(counting, seeds, compatibility=compatibility)
        assert result.n_iterations == 10
        assert CountingCSR.full_products <= 8

        monkeypatch.setattr(
            importlib.import_module("repro.propagation.linbp"), "frontier_product",
            lambda adjacency, block, support: (np.asarray(adjacency @ block), None),
        )
        plain = propagator.propagate(
            Graph(adjacency=graph.adjacency, n_classes=3), seeds,
            compatibility=compatibility,
        )
        assert np.array_equal(result.beliefs, plain.beliefs)

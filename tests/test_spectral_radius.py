"""The sparse spectral radius: one cold Lanczos recurrence on two vectors.

``spectral_radius`` on a sparse (symmetric) matrix runs the same recurrence
as a streaming session's anchor solve, keeping only the two vectors the
three-term recurrence reads.  These tests pin its accuracy against dense
eigenvalues, its upper-bound fallback on graphs that exhaust the step cap,
its bitwise agreement with the session anchor, and its memory footprint.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compatibility import skew_compatibility
from repro.core.statistics import gold_standard_compatibility
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.propagation import get_propagator
from repro.propagation.convergence import quantize_radius, spectral_radius
from repro.stream.session import StreamingSession


def symmetric(n: int, rows, cols, weights) -> sp.csr_matrix:
    upper = sp.coo_matrix((weights, (rows, cols)), shape=(n, n))
    return (upper + upper.T).tocsr()


@st.composite
def small_graphs(draw):
    """Symmetric non-negative adjacencies of 1 to 12 nodes.

    Edge sets are drawn freely, so disconnected graphs, isolated nodes and
    the all-zero matrix all occur; ``bipartite`` restricts edges to cross a
    random two-colouring, which puts ``-rho`` in the spectrum too.
    """
    n = draw(st.integers(1, 12))
    bipartite = draw(st.booleans())
    side = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if not bipartite or side[u] != side[v]
    ]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    )
    weights = draw(st.lists(
        st.floats(0.1, 10.0), min_size=len(chosen), max_size=len(chosen)
    ))
    rows = [u for u, _ in chosen]
    cols = [v for _, v in chosen]
    return symmetric(n, rows, cols, weights)


class TestAgainstDenseEigenvalues:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.integers(0, 2**32 - 1))
    def test_matches_eigvalsh_and_never_rounds_down(self, adjacency, seed):
        exact = float(np.max(np.abs(np.linalg.eigvalsh(adjacency.toarray()))))
        radius = spectral_radius(adjacency, seed=seed)
        assert radius == pytest.approx(exact, rel=1e-9, abs=0.0)
        assert quantize_radius(radius) >= quantize_radius(exact)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_zero_matrix(self, n):
        assert spectral_radius(sp.csr_matrix((n, n))) == 0.0

    def test_empty_matrix(self):
        assert spectral_radius(sp.csr_matrix((0, 0))) == 0.0


def ring(n: int) -> sp.csr_matrix:
    nodes = np.arange(n)
    return symmetric(n, nodes, (nodes + 1) % n, np.ones(n))


def path(n: int) -> sp.csr_matrix:
    nodes = np.arange(n - 1)
    return symmetric(n, nodes, nodes + 1, np.ones(n - 1))


def grid(side: int) -> sp.csr_matrix:
    line = path(side)
    identity = sp.identity(side, format="csr")
    return (sp.kron(line, identity) + sp.kron(identity, line)).tocsr()


class TestStepCapFallsBackToAnUpperBound:
    """Graphs with a tiny spectral gap exhaust the cold step cap.  The Ritz
    value approaches rho from below there, so the radius falls back to the
    largest row sum, which bounds rho from above (Gershgorin)."""

    @pytest.mark.parametrize(
        "build, size, exact",
        [
            (ring, 100_000, 2.0),
            (path, 100_000, 2.0 * np.cos(np.pi / 100_001)),
            (grid, 300, 4.0 * np.cos(np.pi / 301)),
        ],
        ids=["ring-100k", "path-100k", "grid-300x300"],
    )
    def test_closed_form_radius_is_bounded_above(self, build, size, exact):
        radius = spectral_radius(build(size))
        assert exact <= radius <= exact + 1e-3
        assert quantize_radius(radius) >= quantize_radius(exact)


class TestSessionAnchor:
    @pytest.mark.parametrize("spectral_seed", [0, 11])
    def test_anchor_radius_is_the_batch_radius_bitwise(self, spectral_seed):
        graph = generate_graph(
            400, 2400, skew_compatibility(3, h=3.0), seed=4, name="anchor"
        )
        labels = stratified_seed_labels(
            graph.require_labels(), fraction=0.1, rng=1
        )
        session = StreamingSession(
            graph.copy(), get_propagator("linbp"),
            compatibility=gold_standard_compatibility(graph),
            seed_labels=labels, spectral_seed=spectral_seed,
        )
        session.propagate()
        batch = spectral_radius(graph.adjacency, seed=spectral_seed)
        assert session.graph.operators.spectral_radius() == batch


def test_peak_memory_stays_within_six_vectors():
    graph = generate_graph(20_000, 100_000, skew_compatibility(3, h=3.0), seed=7)
    adjacency = graph.adjacency
    spectral_radius(adjacency)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        spectral_radius(adjacency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * adjacency.shape[0] * 8

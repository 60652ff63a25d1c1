"""The carried Ritz pair behind a streaming session's epsilon.

A session settles the rung of ``rho(W)`` on LinBP's scaling ladder from its
last Ritz vector ``v``, moved over each delta's ``dW`` on the touched rows
(``theta' = theta + v'dWv``, ``W'v = Wv + dWv``), and from Temple's interval
around ``theta'``.  These tests check the carried quantities against
recomputation, the interval against the true radius, the rung against a
fresh batch radius, a radius planted next to a rung boundary, and the
priors and labels fast paths against the computations they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph, labels_from_one_hot, one_hot_labels
from repro.propagation.convergence import (
    linbp_scaling,
    quantize_radius,
    spectral_radius,
)
from repro.propagation.linbp import LinBPPropagator
from repro.stream import GraphDelta, StreamingSession
from repro.stream.session import TEMPLE_GAP_SHARE
from repro.utils.matrix import center_columns, center_matrix

# Every edge fraction is eligible for a localized step, and neither the
# delta budget nor the drift re-anchors, so the carried state lives
# through the whole stream.
NEVER_REANCHOR = dict(
    localized=True,
    localized_edge_fraction=1.0,
    full_solve_edge_fraction=1.0,
    radius_drift_tolerance=1.0,
)


def random_graph(n: int, k: int, rng, core: int = 0) -> tuple[Graph, set]:
    """A connected graph: a random spanning tree, a clique on ``core`` of its
    nodes (a dense core sets a spectral gap) and random extra edges."""
    order = rng.permutation(n)
    edges = {
        tuple(sorted((int(order[i]), int(order[rng.integers(0, i)]))))
        for i in range(1, n)
    }
    edges.update(
        (int(min(u, v)), int(max(u, v)))
        for i, u in enumerate(order[:core]) for v in order[i + 1:core]
    )
    while len(edges) < 2 * n - 1:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((u, v))
    labels = rng.integers(0, k, n)
    graph = Graph.from_edges(sorted(edges), n_nodes=n, labels=labels, n_classes=k)
    return graph, edges


def random_stream(graph: Graph, edges: set, steps: int, rng) -> list[GraphDelta]:
    """Small deltas: fresh edges, removals of earlier ones, attached new nodes, reveals."""
    edges = set(edges)
    n = graph.n_nodes
    deltas = []
    for _ in range(steps):
        add_nodes = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
        added = []
        for node in range(n, n + add_nodes):
            added.append((int(rng.integers(0, n)), node))
        while len(added) < add_nodes + int(rng.integers(1, 4)):
            u, v = sorted(int(x) for x in rng.integers(0, n + add_nodes, 2))
            if u != v and (u, v) not in edges and (u, v) not in added:
                added.append((u, v))
        candidates = sorted(edges)
        removed = [
            candidates[i]
            for i in rng.choice(len(candidates), int(rng.integers(0, 3)), replace=False)
        ]
        edges.difference_update(removed)
        edges.update(tuple(sorted(edge)) for edge in added)
        n += add_nodes
        reveal = rng.integers(0, n, int(rng.integers(0, 2)))
        deltas.append(GraphDelta(
            add_edges=np.array(added, dtype=np.int64).reshape(-1, 2),
            remove_edges=np.array(removed, dtype=np.int64).reshape(-1, 2),
            add_nodes=add_nodes,
            node_labels=rng.integers(0, graph.n_classes, add_nodes),
            reveal_nodes=reveal,
            reveal_labels=rng.integers(0, graph.n_classes, reveal.shape[0]),
        ))
    return deltas


def make_session(graph: Graph, k: int, seed_fraction: float, rng, **kwargs):
    seeds = np.where(
        rng.random(graph.n_nodes) < seed_fraction, graph.labels, -1
    ).astype(np.int64)
    compatibility = skew_compatibility(k, h=3.0) if k > 1 else np.ones((1, 1))
    return StreamingSession(
        graph.copy(),
        LinBPPropagator(max_iterations=300, tolerance=1e-9),
        compatibility=compatibility,
        seed_labels=seeds,
        **kwargs,
    )


def top_eigenvalue(adjacency) -> float:
    return float(np.linalg.eigvalsh(adjacency.toarray())[-1])


def check_carried_state(session: StreamingSession, step) -> None:
    """The carried v, Wv, v'Wv and ||Wv||^2 against recomputation; on a
    settled step, Temple's interval around the true radius and its rung."""
    ritz = session._spectral
    adjacency = session.graph.adjacency
    product = adjacency @ ritz.vector
    scale = max(1.0, float(np.abs(product).max()))
    assert np.abs(ritz.product - product).max() <= 1e-12 * scale
    assert abs(ritz.rayleigh - ritz.vector @ product) <= 1e-12 * scale
    assert abs(ritz.product_sq - product @ product) <= 1e-12 * max(1.0, product @ product)

    rho = top_eigenvalue(adjacency)
    assert ritz.rayleigh <= rho * (1 + 1e-12)
    gap = TEMPLE_GAP_SHARE * (ritz.rayleigh - session._second)
    if gap > 0:
        assert rho <= (ritz.rayleigh + ritz.residual_sq / gap) * (1 + 1e-12)
    if step.spectral_products == 0:
        assert gap > 0
        primed = session.graph.operators.spectral_radius()
        assert primed == ritz.rayleigh
        fresh = spectral_radius(adjacency.copy(), seed=0)
        assert quantize_radius(primed) == quantize_radius(fresh)


class TestCarriedRitzPair:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300),
           core=st.integers(0, 10))
    def test_single_steps_match_recomputation(self, seed, n, core):
        rng = np.random.default_rng(seed)
        graph, edges = random_graph(n, 3, rng, core)
        deltas = random_stream(graph, edges, 8, rng)
        session = make_session(graph, 3, 0.2, rng, **NEVER_REANCHOR)
        check_carried_state(session, session.propagate())
        for delta in deltas:
            check_carried_state(session, session.step(delta))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300),
           core=st.integers(0, 10))
    def test_batched_deltas_match_recomputation(self, seed, n, core):
        rng = np.random.default_rng(seed)
        graph, edges = random_graph(n, 3, rng, core)
        deltas = random_stream(graph, edges, 6, rng)
        session = make_session(graph, 3, 0.2, np.random.default_rng(seed), **NEVER_REANCHOR)
        session.propagate()
        applied, errors, step = session.rehydrate(deltas)
        assert (applied, errors) == (len(deltas), [])
        check_carried_state(session, step)

    def test_settled_steps_run_no_product_and_keep_the_batch_epsilon(self):
        rng = np.random.default_rng(3)
        graph, edges = random_graph(400, 3, rng)
        deltas = random_stream(graph, edges, 30, rng)
        session = make_session(graph, 3, 0.2, rng, localized=True)
        first = session.propagate()
        assert first.spectral_products > 0  # the cold anchor
        compatibility = center_matrix(session.compatibility)
        settled = 0
        for delta in deltas:
            step = session.step(delta)
            settled += step.spectral_products == 0
            batch = linbp_scaling(session.graph.adjacency, compatibility)
            assert step.result.details["scaling"] == batch
        assert settled > 0


def planted_session(side: float):
    """A session whose step lands rho within 5e-7 (relative) of a rung boundary.

    ``side`` -1 plants rho just below the boundary, +1 just above it.  The
    base graph and the delta are scaled together so that rho after the
    delta sits where planted.
    """
    rng = np.random.default_rng(11)
    graph, edges = random_graph(120, 3, rng)
    (delta,) = random_stream(graph, edges, 1, rng)
    base = graph.adjacency
    after = base.copy().tolil()
    for u, v in delta.add_edges:
        after[u, v] = after[v, u] = 1.0
    for u, v in delta.remove_edges:
        after[u, v] = after[v, u] = 0.0
    rho = top_eigenvalue(sp.csr_matrix(after))
    boundary = quantize_radius(rho)
    scale = boundary * (1 + side * 5e-7) / rho
    planted = Graph(
        adjacency=(base * scale).tocsr(), labels=graph.labels, n_classes=3
    )
    step_delta = GraphDelta(
        add_edges=delta.add_edges,
        add_weights=np.full(delta.add_edges.shape[0], scale),
        remove_edges=delta.remove_edges,
    )
    session = make_session(planted, 3, 0.2, rng, localized=True)
    session.propagate()
    return session, step_delta


class TestRungBoundary:
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_a_radius_next_to_a_boundary_falls_back_to_lanczos(self, side):
        session, delta = planted_session(side)
        step = session.step(delta)
        adjacency = session.graph.adjacency
        rho = top_eigenvalue(adjacency)
        rung = quantize_radius(rho)
        assert step.spectral_products > 0
        cold = quantize_radius(spectral_radius(adjacency.copy(), seed=0))
        assert cold == rung
        assert quantize_radius(session.graph.operators.spectral_radius()) == cold
        compatibility = center_matrix(session.compatibility)
        assert step.result.details["scaling"] == linbp_scaling(adjacency, compatibility)


class TestBlindRitzVector:
    def test_a_clique_of_new_nodes_re_anchors_the_ritz_vector(self):
        # The carried v is zero on nodes added since the last refresh, so
        # its Rayleigh quotient cannot see a clique grown among them (rho
        # jumps from ~7 to 15) and Temple's interval would settle the old
        # rung.  The clique's dW forces a cold anchor, and the anchor
        # rebuilds v, so the steps after it settle against the new rho.
        rng = np.random.default_rng(4)
        graph = generate_graph(3_000, 9_000, skew_compatibility(3, h=3.0), seed=4)
        session = make_session(graph, 3, 0.1, rng, localized=True)
        session.propagate()
        n = graph.n_nodes
        clique = [[u, v] for u in range(n, n + 16) for v in range(u + 1, n + 16)]
        steps = [GraphDelta(add_edges=clique, add_nodes=16)]
        while len(steps) < 4:
            u, v = sorted(int(x) for x in rng.integers(0, n, 2))
            if u != v and graph.adjacency[u, v] == 0:
                steps.append(GraphDelta(add_edges=[[u, v]]))
        compatibility = center_matrix(session.compatibility)
        cold = LinBPPropagator(max_iterations=300, tolerance=1e-9)
        modes = []
        for delta in steps:
            step = session.step(delta)
            modes.append(step.mode)
            adjacency = session.graph.adjacency
            assert step.result.details["scaling"] == linbp_scaling(adjacency, compatibility)
            batch = cold.propagate(
                session.graph.copy(), session.seed_labels,
                compatibility=session.compatibility, n_classes=3,
            )
            assert np.abs(step.result.beliefs - batch.beliefs).max() <= 1e-6
        # One anchor for the clique; the one-edge steps after it settle.
        assert modes == ["full", "localized", "localized", "localized"]


    def test_every_anchor_rebuilds_the_ritz_vector(self):
        # A second, larger clique of new nodes after the first: the later
        # anchor rebuilds v from its own cold run (rho moves from 15 to
        # 19), and the one-edge steps after each anchor settle the rung
        # the batch computes.
        rng = np.random.default_rng(5)
        graph = generate_graph(2_000, 6_000, skew_compatibility(3, h=3.0), seed=5)
        session = make_session(graph, 3, 0.1, rng, localized=True)
        session.propagate()
        n = graph.n_nodes

        def clique(start, size):
            nodes = range(start, start + size)
            return GraphDelta(
                add_edges=[[u, v] for u in nodes for v in nodes if u < v],
                add_nodes=size,
            )

        def one_edge():
            while True:
                u, v = sorted(int(x) for x in rng.integers(0, n, 2))
                if u != v and session.graph.adjacency[u, v] == 0:
                    return GraphDelta(add_edges=[[u, v]])

        compatibility = center_matrix(session.compatibility)
        modes = []
        for delta in (clique(n, 16), one_edge(), clique(n + 16, 20), one_edge()):
            step = session.step(delta)
            modes.append(step.mode)
            scaling = linbp_scaling(session.graph.adjacency, compatibility)
            assert step.result.details["scaling"] == scaling
        assert modes == ["full", "localized", "full", "localized"]
        top = session._spectral.vector
        # The carried v lives on the 20-clique that now sets rho.
        assert np.abs(top[n + 16:]).min() > 10 * np.abs(top[:n]).max()

class TestPriorsFastPath:
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    @pytest.mark.parametrize("center", [True, False])
    def test_seed_priors_equal_the_one_hot_path_bitwise(self, k, fraction, center):
        rng = np.random.default_rng(k)
        labels = np.where(rng.random(500) < fraction, rng.integers(0, k, 500), -1)
        propagator = LinBPPropagator(center=center)
        priors = propagator._priors(None, labels, k)
        one_hot = np.asarray(one_hot_labels(labels, k).todense(), dtype=np.float64)
        expected = center_columns(one_hot) if center else one_hot
        assert priors.dtype == expected.dtype and priors.shape == expected.shape
        assert priors.tobytes() == expected.tobytes()


class TestLabelsFastPath:
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("fraction", [0.0, 0.2])
    def test_step_labels_equal_a_full_argmax(self, k, fraction):
        rng = np.random.default_rng(20 + k)
        graph, edges = random_graph(300, k, rng)
        deltas = random_stream(graph, edges, 12, rng)
        # A hub gains many edges at once: rho(W) crosses a rung, epsilon
        # changes and the drift correction runs on that step.
        hub = int(np.argmax(np.diff(graph.adjacency.indptr)))
        far = [v for v in range(graph.n_nodes) if v != hub and (min(hub, v), max(hub, v)) not in edges]
        deltas.insert(6, GraphDelta(add_edges=[[hub, v] for v in far[:25]]))
        session = make_session(graph, k, fraction, rng, **NEVER_REANCHOR)
        previous = session.propagate().result.details.get("scaling")
        changed_epsilon = visited_path = 0
        for delta in deltas:
            step = session.step(delta)
            result = step.result
            expected = labels_from_one_hot(result.beliefs)
            seeded = session.seed_labels >= 0
            expected[seeded] = session.seed_labels[seeded]
            assert result.labels.tobytes() == expected.tobytes()
            scaling = result.details["scaling"]
            changed_epsilon += scaling != previous
            visited_path += step.mode == "localized" and scaling == previous
            previous = scaling
        assert session.graph.n_nodes > graph.n_nodes  # nodes were added
        assert visited_path > 0
        if k > 1:
            assert changed_epsilon > 0

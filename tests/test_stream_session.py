"""Tests for StreamingSession and IncrementalPropagator.

The load-bearing property is the correctness contract: after any delta, a
warm incremental solve must land within tolerance of a cold batch re-solve
on the same graph — for LinBP with echo cancellation off and on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.core.statistics import gold_standard_compatibility
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph
from repro.propagation.engine import get_propagator
from repro.stream import GraphDelta, IncrementalPropagator, StreamingSession
from repro.stream.replay import _batch_resolve

# Convergence budgets: streaming needs actually-converged fixed points
# (warm and cold runs only agree at the fixed point).
STREAM_CONFIGS = {
    "linbp": dict(max_iterations=300, tolerance=1e-10),
    "linbp_echo": dict(max_iterations=300, tolerance=1e-10),
}

AGREEMENT_TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def stream_graph() -> Graph:
    return generate_graph(
        300, 1500, skew_compatibility(3, h=3.0), seed=5, name="stream-test"
    )


@pytest.fixture(scope="module")
def compatibility(stream_graph):
    return gold_standard_compatibility(stream_graph)


@pytest.fixture(scope="module")
def seed_labels(stream_graph):
    return stratified_seed_labels(stream_graph.require_labels(), fraction=0.1, rng=2)


def fresh_edges(graph: Graph, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    adjacency = graph.adjacency
    edges: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(0, graph.n_nodes, 2))
        u, v = min(u, v), max(u, v)
        if u == v or (u, v) in seen or adjacency[u, v] != 0:
            continue
        seen.add((u, v))
        edges.append([u, v])
    return np.asarray(edges, dtype=np.int64)


def make_session(stream_graph, compatibility, seed_labels, name, **kwargs):
    propagator = get_propagator(name, **STREAM_CONFIGS[name])
    return StreamingSession(
        stream_graph.copy(),
        propagator,
        compatibility=compatibility,
        seed_labels=seed_labels,
        **kwargs,
    )


class TestIncrementalAgreesWithBatch:
    @pytest.mark.parametrize("name", sorted(STREAM_CONFIGS))
    def test_linbp_echo_off_and_on(
        self, stream_graph, compatibility, seed_labels, name
    ):
        session = make_session(stream_graph, compatibility, seed_labels, name)
        session.propagate()
        labels = stream_graph.labels
        reveal = np.array([11, 23, 57])
        step = session.step(GraphDelta(
            add_edges=fresh_edges(stream_graph, 8, seed=1),
            reveal_nodes=reveal,
            reveal_labels=labels[reveal],
        ))
        assert step.mode == "incremental"
        assert step.decision.reason == "warm"
        batch_beliefs, _ = _batch_resolve(session)
        deviation = float(np.abs(step.result.beliefs - batch_beliefs).max())
        assert deviation <= AGREEMENT_TOLERANCE

    def test_agreement_survives_node_additions_and_removals(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        n = stream_graph.n_nodes
        step = session.step(GraphDelta(
            add_edges=[[n, 4], [n, 90], [n + 1, n], [n + 1, 33]],
            remove_edges=stream_graph.edge_list()[:3],
            add_nodes=2,
            node_labels=[0, 2],
            reveal_nodes=[n],
            reveal_labels=[0],
        ))
        assert session.graph.n_nodes == n + 2
        assert step.mode == "incremental"
        batch_beliefs, _ = _batch_resolve(session)
        assert float(np.abs(step.result.beliefs - batch_beliefs).max()) <= 1e-6
        # The revealed new node is a seed: its label is clamped.
        assert step.result.labels[n] == 0

    def test_agreement_over_many_steps(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        for round_index in range(5):
            step = session.step(GraphDelta(
                add_edges=fresh_edges(session.graph, 5, seed=10 + round_index),
            ))
        batch_beliefs, _ = _batch_resolve(session)
        assert float(np.abs(step.result.beliefs - batch_beliefs).max()) <= 1e-6


class TestFallbackPolicy:
    def test_first_solve_is_full(self, stream_graph, compatibility, seed_labels):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        step = session.propagate()
        assert step.mode == "full"
        assert step.decision.reason == "first"

    def test_large_delta_falls_back(self, stream_graph, compatibility, seed_labels):
        session = make_session(
            stream_graph, compatibility, seed_labels, "linbp",
            full_solve_edge_fraction=0.01,
        )
        session.propagate()
        step = session.step(GraphDelta(
            add_edges=fresh_edges(stream_graph, 40, seed=3),
        ))
        assert step.mode == "full"
        assert step.decision.reason == "delta"
        # The fallback re-anchors: the next small delta is warm again.
        follow_up = session.step(GraphDelta(
            add_edges=fresh_edges(session.graph, 2, seed=4),
        ))
        assert follow_up.mode == "incremental"

    def test_delta_budget_accumulates_across_steps(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(
            stream_graph, compatibility, seed_labels, "linbp",
            full_solve_edge_fraction=0.02,
        )
        session.propagate()
        modes = []
        for index in range(4):
            step = session.step(GraphDelta(
                add_edges=fresh_edges(session.graph, 15, seed=20 + index),
            ))
            modes.append(step.mode)
        # 15 edges each on ~1500: under threshold per step, but the budget
        # accumulates since the last anchor and eventually forces a full.
        assert "full" in modes[1:]

    def test_force_full(self, stream_graph, compatibility, seed_labels):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        step = session.step(
            GraphDelta(add_edges=fresh_edges(stream_graph, 2, seed=5)),
            force_full=True,
        )
        assert step.mode == "full"
        assert step.decision.reason == "forced"

    def test_radius_drift_triggers_full(self, stream_graph, compatibility, seed_labels):
        session = make_session(
            stream_graph, compatibility, seed_labels, "linbp",
            radius_drift_tolerance=1e-9,
            full_solve_edge_fraction=0.9,
        )
        session.propagate()
        # A hub node: 60 new edges onto node 0 moves rho well past 1e-9.
        rng = np.random.default_rng(6)
        adjacency = session.graph.adjacency
        peers = [v for v in rng.permutation(stream_graph.n_nodes)
                 if v != 0 and adjacency[0, v] == 0][:60]
        step = session.step(GraphDelta(add_edges=[[0, int(v)] for v in peers]))
        assert step.mode == "full"
        assert step.decision.reason == "drift"

    def test_spectral_state_skipped_without_scaling(
        self, stream_graph, compatibility, seed_labels
    ):
        session = StreamingSession(
            stream_graph.copy(),
            get_propagator("linbp", scaling=0.05, **STREAM_CONFIGS["linbp"]),
            compatibility=compatibility,
            seed_labels=seed_labels,
        )
        step = session.propagate()
        assert step.spectral_seconds == 0.0
        assert step.decision.radius_drift is None


class TestSessionStateManagement:
    def test_operator_cache_evolves_with_degrees(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        _ = session.graph.operators.degrees  # populate the cache
        session.step(GraphDelta(add_edges=fresh_edges(stream_graph, 6, seed=7)))
        primed = session.graph.operators._cache.get("degrees")
        assert primed is not None
        np.testing.assert_allclose(
            primed,
            np.asarray(np.abs(session.graph.adjacency).sum(axis=1)).ravel(),
        )

    def test_primed_radius_matches_batch(
        self, stream_graph, compatibility, seed_labels
    ):
        from repro.propagation.convergence import spectral_radius

        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        session.step(GraphDelta(add_edges=fresh_edges(stream_graph, 6, seed=8)))
        warm = session.graph.operators.spectral_radius()
        exact = spectral_radius(session.graph.adjacency, seed=0)
        assert warm == pytest.approx(exact, rel=1e-7)

    def test_missing_compatibility_rejected(self, stream_graph, seed_labels):
        with pytest.raises(ValueError, match="compatibility"):
            StreamingSession(
                stream_graph.copy(),
                get_propagator("linbp"),
                seed_labels=seed_labels,
            )

    def test_unknown_class_count_rejected(self):
        bare = Graph.from_edges([(0, 1), (1, 2)], n_nodes=3)
        with pytest.raises(ValueError, match="number of classes"):
            StreamingSession(bare, get_propagator("linbp"))

    def test_reveal_out_of_range_rejected(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        with pytest.raises(ValueError, match="out of range"):
            session.apply(GraphDelta(reveal_nodes=[9999], reveal_labels=[0]))
        with pytest.raises(ValueError, match="revealed labels"):
            session.apply(GraphDelta(reveal_nodes=[0], reveal_labels=[7]))

    def test_beliefs_and_labels_accessors(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        assert session.beliefs() is None and session.labels() is None
        session.propagate()
        assert session.beliefs().shape == (stream_graph.n_nodes, 3)
        assert session.labels().shape == (stream_graph.n_nodes,)


class TestIncrementalPropagatorUnit:
    def test_requires_propagator_instance(self):
        with pytest.raises(TypeError, match="Propagator instance"):
            IncrementalPropagator("linbp")

    def test_threshold_validation(self):
        propagator = get_propagator("linbp")
        with pytest.raises(ValueError, match="full_solve_edge_fraction"):
            IncrementalPropagator(propagator, full_solve_edge_fraction=0)
        with pytest.raises(ValueError, match="radius_drift_tolerance"):
            IncrementalPropagator(propagator, radius_drift_tolerance=-1)

    def test_decision_matrix(self):
        incremental = IncrementalPropagator(
            get_propagator("linbp"),
            full_solve_edge_fraction=0.1,
            radius_drift_tolerance=0.05,
        )
        sentinel = object()
        assert incremental.decide(None).reason == "first"
        assert incremental.decide(sentinel, force_full=True).reason == "forced"
        assert incremental.decide(sentinel, delta_fraction=0.5).reason == "delta"
        assert incremental.decide(sentinel, radius_drift=0.2).reason == "drift"
        decision = incremental.decide(sentinel, delta_fraction=0.01, radius_drift=0.01)
        assert decision.mode == "incremental"
        assert decision.reason == "warm"

class TestApplyAtomicity:
    def test_failed_apply_leaves_session_unchanged(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        n_nodes = session.graph.n_nodes
        labels_before = session.graph.labels.copy()
        seeds_before = session.seed_labels.copy()
        with pytest.raises(ValueError, match="out of range"):
            session.apply(GraphDelta(
                add_nodes=1, node_labels=[0],
                reveal_nodes=[9999], reveal_labels=[0],
            ))
        # Nothing mutated: the caller can skip the bad event and continue.
        assert session.graph.n_nodes == n_nodes
        np.testing.assert_array_equal(session.graph.labels, labels_before)
        np.testing.assert_array_equal(session.seed_labels, seeds_before)
        follow_up = session.step(GraphDelta(
            add_edges=fresh_edges(session.graph, 2, seed=91),
        ))
        assert follow_up.mode == "incremental"

    def test_reveal_may_target_nodes_added_in_same_delta(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        n = session.graph.n_nodes
        step = session.step(GraphDelta(
            add_edges=[[n, 1], [n, 8]], add_nodes=1, node_labels=[1],
            reveal_nodes=[n], reveal_labels=[1],
        ))
        assert session.seed_labels[n] == 1
        assert step.result.labels[n] == 1


class TestApplyValidationAndCacheRetention:
    def test_bad_node_labels_rejected_atomically(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        n_before = session.graph.n_nodes
        with pytest.raises(ValueError, match="added-node labels"):
            session.apply(GraphDelta(add_nodes=1, node_labels=[7]))
        assert session.graph.n_nodes == n_before

    def test_reveal_only_delta_keeps_operator_cache(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        session.propagate()
        operators_before = session.graph.operators
        normalized_before = operators_before.symmetric_normalized
        step = session.step(GraphDelta(
            reveal_nodes=[5], reveal_labels=[int(stream_graph.labels[5])],
        ))
        assert step.mode == "incremental"
        assert session.graph.operators is operators_before
        assert session.graph.operators.symmetric_normalized is normalized_before


class TestEdgelessGraphRegression:
    """A stream starting from an edgeless graph must not crash (issue #4).

    ``delta_fraction`` divides by the *current* edge count; on an empty or
    just-emptied graph that is a 0-division whose NaN/inf outcome must fall
    back to a full solve, never slip past the policy into a warm start.
    """

    @staticmethod
    def _edgeless_graph(n_nodes: int = 6) -> Graph:
        import scipy.sparse as sparse

        labels = np.arange(n_nodes) % 3
        return Graph(
            adjacency=sparse.csr_matrix((n_nodes, n_nodes)),
            labels=labels,
            n_classes=3,
            name="edgeless",
        )

    def _session(self, graph: Graph) -> StreamingSession:
        propagator = get_propagator("linbp", max_iterations=100, tolerance=1e-10)
        seeds = graph.partial_labels(np.array([0, 1, 2]))
        return StreamingSession(
            graph, propagator, compatibility=np.eye(3), seed_labels=seeds
        )

    def test_stream_from_edgeless_graph_full_solves(self):
        session = self._session(self._edgeless_graph())
        step = session.step(GraphDelta(add_edges=[(0, 1)]))
        assert step.decision.mode == "full"
        assert np.isfinite(step.result.beliefs).all()

    def test_reveal_only_steps_on_edgeless_graph(self):
        # n_edges stays 0 across the whole stream: no division crash, and
        # an unchanged empty graph counts as a zero delta, not an infinite
        # one.
        session = self._session(self._edgeless_graph())
        first = session.step(GraphDelta(reveal_nodes=[3], reveal_labels=[0]))
        assert first.decision.reason == "first"
        second = session.step(GraphDelta(reveal_nodes=[4], reveal_labels=[1]))
        assert second.decision.delta_fraction == 0.0
        assert np.isfinite(second.result.beliefs).all()

    def test_delta_edge_fraction_conventions(self):
        from repro.stream.incremental import delta_edge_fraction

        assert delta_edge_fraction(0, 0) == 0.0
        assert delta_edge_fraction(3, 0) == float("inf")
        assert delta_edge_fraction(1, 4) == 0.25

    def test_non_finite_delta_fraction_forces_full_solve(self):
        incremental = IncrementalPropagator(get_propagator("linbp"))
        sentinel = object()
        for value in (float("inf"), float("nan")):
            decision = incremental.decide(sentinel, delta_fraction=value)
            assert decision.mode == "full"
            assert decision.reason == "delta"


class TestSessionThreadSafety:
    """The per-session RLock: readers never observe a mid-mutation state."""

    def test_lock_is_reentrant_through_step(self):
        graph = generate_graph(
            200, 1_000, skew_compatibility(3, h=3.0), seed=13, name="lock"
        )
        session = StreamingSession(
            graph,
            get_propagator("linbp", max_iterations=200, tolerance=1e-8),
            compatibility=gold_standard_compatibility(graph),
            seed_labels=stratified_seed_labels(
                graph.require_labels(), fraction=0.1, rng=1
            ),
        )
        session.propagate()
        with session.lock:  # an outer holder can still step (RLock)
            step = session.step(GraphDelta(add_edges=[[0, 199]]))
        assert step.result.beliefs.shape[0] == 200

    def test_concurrent_readers_see_consistent_snapshots(self):
        import threading

        graph = generate_graph(
            300, 1_500, skew_compatibility(3, h=3.0), seed=17, name="race"
        )
        session = StreamingSession(
            graph,
            get_propagator("linbp", max_iterations=200, tolerance=1e-8),
            compatibility=gold_standard_compatibility(graph),
            seed_labels=stratified_seed_labels(
                graph.require_labels(), fraction=0.1, rng=1
            ),
        )
        session.propagate()
        failures: list[str] = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                with session.lock:
                    beliefs = session.beliefs()
                    n_nodes = session.graph.n_nodes
                    n_labels = session.seed_labels.shape[0]
                if beliefs.shape[0] != n_nodes or n_labels != n_nodes:
                    failures.append(
                        f"torn read: beliefs {beliefs.shape[0]}, "
                        f"graph {n_nodes}, seed labels {n_labels}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            # Writer: node-growing deltas are the ones that tear state
            # without the lock (adjacency swapped before labels grow).
            for index in range(30):
                session.step(
                    GraphDelta(add_nodes=1, add_edges=[[index, 300 + index]])
                )
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
        assert failures == []
        assert session.graph.n_nodes == 330

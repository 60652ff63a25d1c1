"""Tests for repro.obs.quality: prequential accuracy, churn, drift.

The load-bearing invariants:

* quality telemetry is pure observation — replayed beliefs are bitwise
  identical with REPRO_OBS on and off;
* prequential scoring is strictly test-then-train and only counts real
  predictions (already-labeled re-reveals and same-delta node births
  are excluded);
* the session's neighbor label counts M = X^T W X, which the drift
  gauge reads, always equal a from-scratch ``neighbor_statistics``
  recount of the current graph, whatever mix of strict or lenient
  deltas got there and whether obs was on or off;
* localized churn over the trusted frontier agrees with a dense
  comparison (off-frontier rows are provably unchanged).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.compatibility import skew_compatibility
from repro.core.statistics import gold_standard_compatibility, neighbor_statistics
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph, one_hot_labels
from repro.obs.quality import QualityMonitor, normalized_drift
from repro.propagation.engine import get_propagator
from repro.stream import GraphDelta, StreamingSession


@pytest.fixture()
def registry():
    with obs.use_registry() as swapped:
        yield swapped


@pytest.fixture(scope="module")
def quality_graph():
    return generate_graph(
        300, 1_500, skew_compatibility(3, h=3.0), seed=7, name="quality-test"
    )


def make_session(graph, **kwargs):
    propagator = get_propagator("linbp", max_iterations=300, tolerance=1e-10)
    kwargs.setdefault(
        "compatibility", gold_standard_compatibility(graph)
    )
    kwargs.setdefault(
        "seed_labels",
        stratified_seed_labels(graph.require_labels(), fraction=0.1, rng=2),
    )
    return StreamingSession(graph.copy(), propagator, strict=False, **kwargs)


def recount(session) -> np.ndarray:
    """M = X^T W X of the session's current graph and seeds, from scratch."""
    return neighbor_statistics(
        session.graph.adjacency,
        one_hot_labels(session.seed_labels, session.graph.n_classes),
    )


# ---------------------------------------------------------------- matrices
class TestCompatibilityEstimate:
    def test_row_normalizes_counts(self):
        counts = np.array([[6.0, 2.0], [1.0, 3.0]])
        estimate = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert normalized_drift(counts, estimate) == pytest.approx(0.0, abs=1e-15)
        assert normalized_drift(counts, np.eye(2)) > 0.1

    def test_unobserved_rows_fall_back_to_uniform(self):
        counts = np.array([[4.0, 0.0], [0.0, 0.0]])
        estimate = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert normalized_drift(counts, estimate) == pytest.approx(0.0, abs=1e-15)
        assert normalized_drift(counts, np.eye(2)) > 0.1

    def test_drift_zero_when_counts_match_shape(self):
        compatibility = np.array([[0.8, 0.2], [0.2, 0.8]])
        counts = compatibility * 100  # same shape, different scale
        assert normalized_drift(counts, compatibility) == pytest.approx(0.0)

    def test_drift_positive_and_scale_insensitive(self):
        homophilous = np.array([[0.9, 0.1], [0.1, 0.9]])
        heterophilous_counts = np.array([[5.0, 95.0], [95.0, 5.0]])
        drift = normalized_drift(heterophilous_counts, homophilous)
        assert drift > 0.5
        assert normalized_drift(
            heterophilous_counts * 7, homophilous * 3
        ) == pytest.approx(drift)

    def test_drift_survives_centered_reference(self):
        # LinBP's centered residual H has negative entries; the gauge
        # must stay finite and zero when the shapes agree in magnitude.
        centered = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.isfinite(normalized_drift(np.ones((2, 2)), centered))


# ------------------------------------------------------------- prequential
class TestPrequential:
    def test_scores_argmax_against_incoming_labels(self, registry):
        monitor = QualityMonitor(registry=registry)
        beliefs = np.array([
            [0.9, 0.05, 0.05],   # predicts 0
            [0.1, 0.8, 0.1],     # predicts 1
            [0.2, 0.2, 0.6],     # predicts 2
        ])
        seed_labels = np.full(3, -1, dtype=np.int64)
        accuracy = monitor.observe_reveal(
            beliefs, np.array([0, 1, 2]), np.array([0, 2, 2]), seed_labels
        )
        assert accuracy == pytest.approx(2 / 3)
        assert monitor.scored == 3 and monitor.correct == 2
        assert monitor.accuracy == pytest.approx(2 / 3)

    def test_already_labeled_reveal_is_not_scored(self, registry):
        monitor = QualityMonitor(registry=registry)
        beliefs = np.array([[0.9, 0.1], [0.2, 0.8]])
        seed_labels = np.array([0, -1], dtype=np.int64)
        # Node 0 is a re-reveal (label update), only node 1 is a test.
        accuracy = monitor.observe_reveal(
            beliefs, np.array([0, 1]), np.array([1, 1]), seed_labels
        )
        assert accuracy == pytest.approx(1.0)
        assert monitor.scored == 1

    def test_nodes_outside_belief_matrix_are_not_scored(self, registry):
        monitor = QualityMonitor(registry=registry)
        beliefs = np.array([[0.9, 0.1]])
        seed_labels = np.full(5, -1, dtype=np.int64)
        # Node 4 was created by this same delta: never predicted.
        accuracy = monitor.observe_reveal(
            beliefs, np.array([0, 4]), np.array([0, 1]), seed_labels
        )
        assert accuracy == pytest.approx(1.0)
        assert monitor.scored == 1

    def test_empty_reveal_and_missing_beliefs_return_none(self, registry):
        monitor = QualityMonitor(registry=registry)
        empty = np.empty(0, dtype=np.int64)
        assert monitor.observe_reveal(
            np.ones((2, 2)), empty, empty, np.full(2, -1)
        ) is None
        assert monitor.observe_reveal(
            None, np.array([0]), np.array([1]), np.full(2, -1)
        ) is None
        assert monitor.scored == 0 and monitor.reveal_deltas == 0

    def test_node_revealed_twice_in_one_delta_is_scored_once(self, registry):
        monitor = QualityMonitor(registry=registry)
        beliefs = np.array([[0.9, 0.1], [0.2, 0.8]])
        seed_labels = np.full(2, -1, dtype=np.int64)
        # Node 0's last label in the delta (0) is the one the session
        # absorbs, so it is the one node 0 is scored against.
        accuracy = monitor.observe_reveal(
            beliefs, np.array([0, 1, 0, 0]), np.array([1, 1, 1, 0]), seed_labels
        )
        assert accuracy == pytest.approx(1.0)
        assert monitor.scored == 2 and monitor.correct == 2

    def test_repeated_reveal_counts_once_in_a_session(self, registry, quality_graph):
        session = make_session(quality_graph)
        session.propagate()
        node = int(np.flatnonzero(session.seed_labels < 0)[0])
        label = int(quality_graph.labels[node])
        session.step(GraphDelta(reveal_nodes=[node] * 3, reveal_labels=[label] * 3))
        assert session.quality_summary()["prequential"]["scored"] == 1
        assert session.seed_labels[node] == label

    def test_counters_reach_the_registry(self, registry):
        monitor = QualityMonitor(registry=registry, labels={"session": "s1"})
        beliefs = np.array([[0.9, 0.1], [0.9, 0.1]])
        monitor.observe_reveal(
            beliefs, np.array([0, 1]), np.array([0, 1]),
            np.full(2, -1, dtype=np.int64),
        )
        snapshot = registry.snapshot()
        family = snapshot["families"]["repro_quality_prequential_total"]
        by_outcome = {
            dict(label_items)["outcome"]: payload["value"]
            for label_items, payload in family["children"]
        }
        assert by_outcome["correct"] == 1.0
        assert by_outcome["wrong"] == 1.0


# ------------------------------------------------------------------ churn
class TestChurn:
    def test_dense_movement_and_flips(self, registry):
        monitor = QualityMonitor(registry=registry)
        before = np.array([[0.9, 0.1], [0.2, 0.8]])
        after = np.array([[0.9, 0.1], [0.7, 0.3]])  # node 1 flips 1 -> 0
        churn = monitor.observe_churn(before, after)
        assert churn["flips"] == 1
        assert churn["n_compared"] == 2
        assert monitor.flips_total == 1

    def test_localized_agrees_with_dense_on_the_frontier(self, registry):
        rng = np.random.default_rng(0)
        before = rng.random((50, 3))
        after = before.copy()
        frontier = np.array([3, 17, 41])
        after[frontier] = rng.random((3, 3))  # off-frontier rows untouched
        dense = QualityMonitor(registry=registry)
        localized = QualityMonitor(registry=registry, labels={"m": "loc"})
        d = dense.observe_churn(before, after, mode="full")
        l = localized.observe_churn(before, after, rows=frontier, mode="localized")
        assert l["flips"] == d["flips"]

    def test_grown_matrix_compares_shared_rows(self, registry):
        monitor = QualityMonitor(registry=registry)
        before = np.array([[0.9, 0.1]])
        after = np.array([[0.9, 0.1], [0.5, 0.5]])  # a node was added
        churn = monitor.observe_churn(before, after)
        assert churn["n_compared"] == 1
        assert churn["flips"] == 0

    def test_empty_frontier_records_a_zero_step(self, registry):
        monitor = QualityMonitor(registry=registry)
        before = np.ones((4, 2))
        churn = monitor.observe_churn(
            before, before, rows=np.empty(0, dtype=np.int64), mode="localized"
        )
        assert churn["n_compared"] == 0 and churn["flips"] == 0
        assert monitor.churn_steps == 1


# ------------------------------------------------------------------ drift
class TestDriftBookkeeping:
    def test_anchor_counts_hold_both_orientations(self, registry, path_graph):
        session = make_session(
            path_graph,
            compatibility=np.array([[0.1, 0.9], [0.9, 0.1]]),
            seed_labels=path_graph.labels,  # 0 1 0 1 0 along a path
        )
        assert np.array_equal(session.counts, recount(session))
        assert np.array_equal(session.counts, [[0.0, 4.0], [4.0, 0.0]])
        assert session.quality.pairs_observed == 4.0

    def test_edges_and_reveals_track_a_recount(self, registry, quality_graph):
        session = make_session(quality_graph)
        session.propagate()
        rng = np.random.default_rng(13)
        truth = quality_graph.require_labels()
        for step in range(6):
            hidden = np.flatnonzero(session.seed_labels < 0)
            reveal = rng.choice(hidden, size=4, replace=False)
            delta = GraphDelta(
                add_edges=rng.integers(
                    0, session.graph.n_nodes, size=(5, 2)
                ).astype(np.int64),
                reveal_nodes=reveal,
                reveal_labels=truth[reveal],
            )
            session.step(delta)
            assert np.array_equal(session.counts, recount(session)), (
                f"counts diverged from recount at step {step}"
            )

    def test_re_reveal_with_changed_label_moves_pairs(self, registry, path_graph):
        session = make_session(
            path_graph,
            compatibility=np.array([[0.1, 0.9], [0.9, 0.1]]),
            seed_labels=np.array([0, 1, 0, 1, 0], dtype=np.int64),
        )
        session.propagate()
        assert session.counts[0, 1] == 4.0  # fully-labeled alternating path
        # Flip node 2's label 0 -> 1: edges 1-2 and 2-3 become (1, 1).
        session.step(GraphDelta(
            reveal_nodes=np.array([2]), reveal_labels=np.array([1])
        ))
        assert np.array_equal(session.counts, recount(session))
        assert session.counts[1, 1] == 4.0  # two (1,1) edges, both orientations

    def test_adjacent_nodes_revealed_in_one_delta_count_once(
        self, registry, path_graph
    ):
        session = make_session(
            path_graph,
            compatibility=np.array([[0.1, 0.9], [0.9, 0.1]]),
            seed_labels=np.array([-1, -1, -1, -1, -1], dtype=np.int64),
        )
        session.propagate()
        session.step(GraphDelta(
            reveal_nodes=np.array([1, 2]), reveal_labels=np.array([1, 0])
        ))
        assert np.array_equal(session.counts, recount(session))
        assert session.counts[0, 1] == 1.0

    def test_removed_edges_decrement(self, registry, path_graph):
        session = make_session(
            path_graph,
            compatibility=np.array([[0.1, 0.9], [0.9, 0.1]]),
            seed_labels=np.array([0, 1, 0, 1, 0], dtype=np.int64),
        )
        session.propagate()
        session.step(GraphDelta(remove_edges=np.array([[1, 2]])))
        assert np.array_equal(session.counts, recount(session))
        assert session.counts[0, 1] == 3.0

    @pytest.mark.parametrize("delta, obs_on", [
        # Nodes 0 and 3 (labels 0 and 1) are not adjacent on the path.
        pytest.param(
            GraphDelta(remove_edges=[[0, 3]]), True,
            id="lenient-absent-removal",
        ),
        pytest.param(
            GraphDelta(add_edges=[[0, 3]], add_weights=[2.5]), True,
            id="weighted-add",
        ),
        pytest.param(GraphDelta(add_edges=[[0, 3]]), False, id="obs-off-step"),
    ])
    def test_gauge_reads_the_recount_after_delta(
        self, registry, path_graph, delta, obs_on
    ):
        compatibility = np.array([[0.1, 0.9], [0.9, 0.1]])
        session = make_session(
            path_graph, compatibility=compatibility,
            seed_labels=np.array([0, 1, 0, 1, 0], dtype=np.int64),
        )
        session.propagate()
        previous = obs.set_enabled(obs_on)
        try:
            session.step(delta)
        finally:
            obs.set_enabled(previous)
        session.step(GraphDelta())  # an obs-on step refreshes the gauge
        expected = recount(session)
        assert np.array_equal(session.counts, expected)
        drift = session.quality_summary()["drift"]
        assert drift["pairs_observed"] == expected.sum() / 2
        assert drift["value"] == normalized_drift(expected, compatibility)

    def test_drift_gauge_rises_under_label_noise(self, registry, quality_graph):
        session = make_session(quality_graph)
        session.propagate()
        start = session.quality.last_drift
        assert start is not None
        rng = np.random.default_rng(3)
        truth = quality_graph.require_labels()
        for _ in range(8):
            hidden = np.flatnonzero(session.seed_labels < 0)
            reveal = rng.choice(hidden, size=8, replace=False)
            # Adversarial labels: deterministically wrong classes.
            noisy = (truth[reveal] + 1) % quality_graph.n_classes
            session.step(GraphDelta(reveal_nodes=reveal, reveal_labels=noisy))
        assert session.quality.last_drift > start
        snapshot = registry.snapshot()
        family = snapshot["families"]["repro_quality_drift"]
        assert max(
            payload["value"] for _, payload in family["children"]
        ) == pytest.approx(session.quality.last_drift)


# -------------------------------------------------------- batch oracle
DYADIC_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.5])


def draw_delta(data, session) -> GraphDelta:
    """One random delta that ``session.apply`` accepts in its mode."""
    n_classes = session.graph.n_classes
    add_nodes = data.draw(st.integers(0, 2))
    n_after = session.graph.n_nodes + add_nodes
    upper = session.graph.adjacency.tocoo()
    present = sorted(
        (int(u), int(v)) for u, v in zip(upper.row, upper.col) if u < v
    )
    pairs = [(u, v) for u in range(n_after) for v in range(u + 1, n_after)]
    absent = sorted(set(pairs) - set(present))
    if session.strict:
        # Strict: add absent edges, remove present ones, each at most once.
        adds = data.draw(st.lists(st.sampled_from(absent), max_size=4, unique=True))
        removes = (
            data.draw(st.lists(st.sampled_from(present), max_size=3, unique=True))
            if present else []
        )
    else:
        # Lenient: re-adds sum weights, absent removals are no-ops.
        adds = data.draw(st.lists(st.sampled_from(pairs), max_size=4))
        removes = data.draw(st.lists(st.sampled_from(pairs), max_size=3))
    flip = data.draw(st.booleans())
    adds = [(v, u) if flip else (u, v) for u, v in adds]
    weights = data.draw(st.one_of(
        st.none(), st.lists(DYADIC_WEIGHTS, min_size=len(adds), max_size=len(adds)),
    ))
    reveal = data.draw(st.lists(
        st.tuples(st.integers(0, n_after - 1), st.integers(0, n_classes - 1)),
        max_size=3, unique_by=lambda pair: pair[0],
    ))
    return GraphDelta(
        add_edges=adds,
        add_weights=weights,
        remove_edges=removes,
        add_nodes=add_nodes,
        reveal_nodes=[node for node, _ in reveal],
        reveal_labels=[label for _, label in reveal],
    )


class TestCountsOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), strict=st.booleans())
    def test_counts_equal_recount_after_every_delta(self, data, strict):
        n_nodes, n_classes = 6, 3
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1))
            .filter(lambda edge: edge[0] != edge[1]),
            max_size=10, unique_by=lambda edge: frozenset(edge),
        ))
        graph = Graph.from_edges(edges, n_nodes=n_nodes, n_classes=n_classes)
        seeds = np.array(
            data.draw(st.lists(
                st.integers(-1, n_classes - 1), min_size=n_nodes, max_size=n_nodes,
            )),
            dtype=np.int64,
        )
        with obs.use_registry():
            session = StreamingSession(
                graph, get_propagator("linbp"),
                compatibility=skew_compatibility(n_classes, h=3.0),
                seed_labels=seeds, strict=strict,
            )
            assert np.array_equal(session.counts, recount(session))
            for _ in range(data.draw(st.integers(1, 6))):
                delta = draw_delta(data, session)
                previous = obs.set_enabled(data.draw(st.booleans()))
                try:
                    session.apply(delta)
                finally:
                    obs.set_enabled(previous)
                assert np.array_equal(session.counts, recount(session))


# ----------------------------------------------------- session integration
class TestSessionIntegration:
    def test_reveals_are_scored_before_absorption(self, registry, quality_graph):
        session = make_session(quality_graph)
        session.propagate()
        hidden = np.flatnonzero(session.seed_labels < 0)
        truth = quality_graph.require_labels()
        # Feed labels that contradict the model's current argmax so a
        # train-then-test bug (scoring after absorption re-anchors the
        # node) would report spuriously perfect accuracy.
        beliefs = session.last_result.beliefs
        predicted = np.argmax(beliefs[hidden], axis=1)
        wrong = hidden[predicted != truth[hidden]][:5]
        assert wrong.shape[0] > 0
        session.step(GraphDelta(
            reveal_nodes=wrong, reveal_labels=truth[wrong]
        ))
        preq = session.quality_summary()["prequential"]
        assert preq["scored"] == wrong.shape[0]
        assert preq["accuracy"] == pytest.approx(0.0)

    def test_localized_step_reports_localized_churn(self, registry, quality_graph):
        session = make_session(quality_graph)
        session.propagate()
        delta = GraphDelta(add_edges=np.array([[0, 5]], dtype=np.int64))
        step = session.step(delta)
        churn = session.quality_summary()["churn"]
        assert churn["steps"] == 1
        assert churn["last"]["mode"] == step.mode

    def test_off_mode_summary_is_inert(self, quality_graph):
        previous = obs.set_enabled(False)
        try:
            with obs.use_registry():
                session = make_session(quality_graph)
                session.propagate()
                hidden = np.flatnonzero(session.seed_labels < 0)
                truth = quality_graph.require_labels()
                session.step(GraphDelta(
                    reveal_nodes=hidden[:3], reveal_labels=truth[hidden[:3]]
                ))
                summary = session.quality_summary()
        finally:
            obs.set_enabled(previous)
        assert summary["prequential"]["scored"] == 0
        assert summary["churn"]["steps"] == 0
        assert summary["drift"]["pairs_observed"] == 0.0

    def test_beliefs_bitwise_identical_obs_on_vs_off(self, quality_graph):
        """Quality telemetry must be pure observation."""
        truth = quality_graph.require_labels()
        rng = np.random.default_rng(29)

        def run():
            with obs.use_registry():
                session = make_session(quality_graph)
                session.propagate()
                stream_rng = np.random.default_rng(91)
                for _ in range(5):
                    hidden = np.flatnonzero(session.seed_labels < 0)
                    reveal = stream_rng.choice(hidden, size=3, replace=False)
                    delta = GraphDelta(
                        add_edges=stream_rng.integers(
                            0, session.graph.n_nodes, size=(4, 2)
                        ).astype(np.int64),
                        remove_edges=np.empty((0, 2), dtype=np.int64),
                        reveal_nodes=reveal,
                        reveal_labels=truth[reveal],
                    )
                    session.step(delta)
                return session.last_result.beliefs.copy(), session

        previous = obs.set_enabled(True)
        try:
            beliefs_on, session_on = run()
            assert session_on.quality.scored > 0  # telemetry actually ran
            obs.set_enabled(False)
            beliefs_off, session_off = run()
            assert session_off.quality.scored == 0  # and was actually off
        finally:
            obs.set_enabled(previous)
        assert beliefs_on.dtype == beliefs_off.dtype
        assert np.array_equal(beliefs_on, beliefs_off)

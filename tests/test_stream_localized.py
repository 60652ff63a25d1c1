"""Localized (residual-push) streaming: correctness, policy, observability.

The load-bearing property mirrors ``test_stream_session``: with
``localized=True`` every small delta must be solved by the residual-push
path ("localized" mode) and still land within 1e-6 of a cold batch re-solve
— across edge deltas, label reveals, and node additions.  On top of that this module pins the
decision policy (when localized is chosen over warm/full), the
per-session mode counters and touched-nonzeros accounting, and the serve
layer's ``GET /graphs/<name>/stats`` observability slice.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.core.statistics import gold_standard_compatibility
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph
from repro.propagation.engine import get_propagator
from repro.serve import InferenceService, make_server
from repro.stream import GraphDelta, IncrementalPropagator, StreamingSession
from repro.stream.replay import _batch_resolve, replay_events

# Tight budgets: localized and dense solves only agree at the fixed point.
LOCALIZED_CONFIGS = {
    "linbp": dict(max_iterations=300, tolerance=1e-10),
}

AGREEMENT_TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def stream_graph() -> Graph:
    return generate_graph(
        300, 1500, skew_compatibility(3, h=3.0), seed=5, name="localized-test"
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
    propagator = get_propagator(name, **LOCALIZED_CONFIGS[name])
    return StreamingSession(
        stream_graph.copy(),
        propagator,
        compatibility=compatibility,
        seed_labels=seed_labels,
        localized=True,
        **kwargs,
    )


class TestLocalizedAgreesWithBatch:
    @pytest.mark.parametrize("name", sorted(LOCALIZED_CONFIGS))
    def test_random_deltas_reveals_and_node_adds(
        self, stream_graph, compatibility, seed_labels, name
    ):
        session = make_session(stream_graph, compatibility, seed_labels, name)
        session.propagate()
        labels = stream_graph.labels
        rng = np.random.default_rng(17)
        deltas = []
        # Edge-only, edges + reveals, reveal-only, node add + attach + reveal.
        deltas.append(GraphDelta(add_edges=fresh_edges(session.graph, 6, seed=21)))
        reveal = rng.choice(stream_graph.n_nodes, 3, replace=False)
        deltas.append(GraphDelta(
            add_edges=fresh_edges(session.graph, 4, seed=22),
            reveal_nodes=reveal,
            reveal_labels=labels[reveal],
        ))
        solo = rng.choice(stream_graph.n_nodes, 2, replace=False)
        deltas.append(GraphDelta(
            reveal_nodes=solo, reveal_labels=labels[solo]
        ))
        n = stream_graph.n_nodes
        deltas.append(GraphDelta(
            add_edges=[[n, 4], [n, 90], [n, 211]],
            add_nodes=1,
            node_labels=[int(labels[4])],
            reveal_nodes=[n],
            reveal_labels=[int(labels[4])],
        ))
        for delta in deltas:
            step = session.step(delta)
            assert step.mode == "localized"
            assert step.decision.reason == "localized"
            assert step.result.details.get("localized") is True
            assert step.touched_nnz > 0
            batch_beliefs, _ = _batch_resolve(session)
            deviation = float(np.abs(step.result.beliefs - batch_beliefs).max())
            assert deviation <= AGREEMENT_TOLERANCE, (
                f"{name}: localized step deviates {deviation:.2e} from batch"
            )

    @pytest.mark.parametrize("name", sorted(LOCALIZED_CONFIGS))
    def test_localized_matches_dense_warm_session(
        self, stream_graph, compatibility, seed_labels, name
    ):
        """Same delta stream, localized vs dense warm: same fixed point."""
        localized = make_session(stream_graph, compatibility, seed_labels, name)
        propagator = get_propagator(name, **LOCALIZED_CONFIGS[name])
        dense = StreamingSession(
            stream_graph.copy(),
            propagator,
            compatibility=compatibility,
            seed_labels=seed_labels,
        )
        localized.propagate()
        dense.propagate()
        for round_index in range(3):
            delta = GraphDelta(
                add_edges=fresh_edges(localized.graph, 5, seed=40 + round_index)
            )
            step_localized = localized.step(delta)
            step_dense = dense.step(delta)
            assert step_localized.mode == "localized"
            deviation = float(np.abs(
                step_localized.result.beliefs - step_dense.result.beliefs
            ).max())
            assert deviation <= AGREEMENT_TOLERANCE


    def test_echo_request_runs_the_dense_warm_path(self):
        """``localized=True`` on echo LinBP must not solve the echo-free system."""
        graph = generate_graph(
            2000, 10000, skew_compatibility(3, h=3.0), seed=11, name="echo"
        )
        seeds = stratified_seed_labels(graph.require_labels(), fraction=0.1, rng=3)
        propagator = get_propagator(
            "linbp", echo_cancellation=True, **LOCALIZED_CONFIGS["linbp"]
        )
        session = StreamingSession(
            graph, propagator, compatibility=skew_compatibility(3, h=3.0),
            seed_labels=seeds, localized=True,
        )
        previous = session.propagate().result
        hidden = np.flatnonzero(seeds < 0)[:3]
        step = session.step(GraphDelta(
            reveal_nodes=hidden, reveal_labels=graph.labels[hidden],
        ))
        assert step.mode == "incremental"
        batch_beliefs, _ = _batch_resolve(session)
        deviation = float(np.abs(step.result.beliefs - batch_beliefs).max())
        assert deviation <= AGREEMENT_TOLERANCE
        # A direct localized request on the engine takes the same dense path.
        direct = propagator.propagate(
            session.graph, session.seed_labels, session.compatibility,
            warm_start=previous, localized=True,
        )
        assert not direct.details.get("localized")
        np.testing.assert_allclose(direct.beliefs, batch_beliefs, atol=1e-6)


class TestLocalizedDecisionPolicy:
    @staticmethod
    def primed(localized=True, **kwargs):
        propagator = get_propagator("linbp", max_iterations=50)
        return IncrementalPropagator(propagator, localized=localized, **kwargs)

    def test_small_delta_goes_localized(self):
        incremental = self.primed()
        decision = incremental.decide(object(), delta_fraction=0.004, radius_drift=0.0)
        assert decision.mode == "localized"
        assert decision.reason == "localized"

    def test_above_fraction_threshold_stays_warm(self):
        incremental = self.primed()
        decision = incremental.decide(object(), delta_fraction=0.02, radius_drift=0.0)
        assert decision.mode == "incremental"
        assert decision.reason == "warm"

    def test_opt_out_never_localizes(self):
        incremental = self.primed(localized=False)
        decision = incremental.decide(object(), delta_fraction=0.001, radius_drift=0.0)
        assert decision.mode == "incremental"

    def test_custom_fraction_threshold(self):
        # Must stay below full_solve_edge_fraction (0.05) or the delta
        # fallback outranks localization.
        incremental = self.primed(localized_edge_fraction=0.04)
        decision = incremental.decide(object(), delta_fraction=0.03, radius_drift=0.0)
        assert decision.mode == "localized"

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError, match="localized_edge_fraction"):
            self.primed(localized_edge_fraction=0.0)


class TestCountersAndObservability:
    def test_session_mode_counts_and_touched_nnz(
        self, stream_graph, compatibility, seed_labels
    ):
        session = make_session(stream_graph, compatibility, seed_labels, "linbp")
        first = session.propagate()
        nnz_at_anchor = session.graph.adjacency.nnz
        steps = [first]
        for round_index in range(2):
            steps.append(session.step(GraphDelta(
                add_edges=fresh_edges(session.graph, 4, seed=60 + round_index)
            )))
        assert session.mode_counts == {"full": 1, "incremental": 0, "localized": 2}
        # Dense full solve pays n_iterations * nnz; localized steps report
        # the kernels' exact touched count.
        assert first.touched_nnz == first.result.n_iterations * nnz_at_anchor
        assert 0 < steps[1].touched_nnz < first.touched_nnz
        assert session.touched_nnz_total == sum(s.touched_nnz for s in steps)

        stats = session.decision_stats()
        assert stats["mode_counts"] == session.mode_counts
        assert stats["touched_nnz_total"] == session.touched_nnz_total
        assert stats["localized_enabled"] is True

    def test_replay_report_carries_localized_counters(
        self, stream_graph, compatibility, seed_labels
    ):
        deltas = [
            GraphDelta(add_edges=fresh_edges(stream_graph, 4, seed=71)),
            GraphDelta(add_edges=fresh_edges(stream_graph, 4, seed=72)),
        ]
        propagator = get_propagator("linbp", **LOCALIZED_CONFIGS["linbp"])
        report = replay_events(
            stream_graph, deltas, propagator,
            compatibility=compatibility, seed_labels=seed_labels,
            verify_every=2, localized=True,
        )
        assert report.n_localized == 2
        payload = report.to_dict()
        assert payload["n_localized"] == 2
        assert payload["total_touched_nnz"] == sum(
            record.touched_nnz for record in report.steps
        )
        assert payload["total_touched_nnz"] > 0
        assert payload["mean_localized_seconds"] is not None
        assert report.max_deviation is not None
        assert report.max_deviation <= AGREEMENT_TOLERANCE


class TestServeLocalized:
    @pytest.fixture()
    def service(self, stream_graph):
        service = InferenceService()
        service.load_graph(
            "g", graph=stream_graph.copy(),
            fraction=0.1, seed=1, localized=True,
        )
        return service

    def test_graph_stats_counts_localized_solves(self, service, stream_graph):
        service.apply_delta("g", GraphDelta(
            add_edges=fresh_edges(stream_graph, 3, seed=81)
        ))
        stats = service.graph_stats("g")
        assert stats["graph"] == "g"
        assert stats["n_solves"] == 2  # anchor + delta refresh
        assert stats["n_localized"] == 1
        assert stats["n_full"] == 1
        assert stats["mode_counts"]["localized"] == 1
        assert stats["touched_nnz_total"] > 0
        assert stats["localized_enabled"] is True
        # info() exposes the same decision slice inline.
        info = service.info("g")
        assert info["n_localized"] == 1
        assert info["decisions"]["mode_counts"] == stats["mode_counts"]

    def test_http_stats_route(self, service, stream_graph):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]

            def get(path):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}{path}", method="GET"
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())

            status, stats = get("/graphs/g/stats")
            assert status == 200
            assert stats["graph"] == "g"
            assert stats["localized_enabled"] is True
            assert set(stats) >= {
                "n_solves", "n_incremental", "n_localized", "n_full",
                "mode_counts", "touched_nnz_total",
            }
            status, _ = get("/graphs/missing/stats")
            assert status == 404
        finally:
            server.close()
            thread.join(timeout=5)

"""Unit tests for the inference service: loading, queries, deltas, staleness."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.io import save_graph_npz
from repro.runner.spec import GridSpec
from repro.runner.executor import execute_grid
from repro.runner.store import ResultStore
from repro.serve import (
    GraphSourceError,
    InferenceService,
    ServeError,
    UnknownGraphError,
    graph_from_store,
)
from repro.stream import GraphDelta


@pytest.fixture(scope="module")
def serve_graph():
    return generate_graph(
        600, 3_000, skew_compatibility(3, h=3.0), seed=4, name="serve-test"
    )


@pytest.fixture()
def service(serve_graph):
    service = InferenceService()
    service.load_graph(
        "g", graph=serve_graph.copy(), fraction=0.1, seed=1
    )
    return service


class TestLoading:
    def test_load_from_npz(self, serve_graph, tmp_path):
        path = save_graph_npz(serve_graph, tmp_path / "g.npz")
        service = InferenceService()
        info = service.load_graph("npz", path=path, fraction=0.1)
        assert info["n_nodes"] == serve_graph.n_nodes
        assert info["n_edges"] == serve_graph.n_edges
        assert info["belief_version"] == 1  # anchoring solve ran
        assert service.graph_names() == ["npz"]

    def test_load_from_store_record(self, tmp_path):
        grid = GridSpec(
            graphs=[{"kind": "generate", "n_nodes": 120, "n_edges": 600,
                     "seed": 3, "name": "stored"}],
            estimators=["MCE"],
            label_fractions=[0.1],
            name="serve-load",
        )
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store)
        run_hash = grid.expand()[0].content_hash

        service = InferenceService()
        info = service.load_graph(
            "stored", store=tmp_path / "store", run_hash=run_hash[:10],
            fraction=0.1,
        )
        assert info["n_nodes"] == 120
        # The shared loader rebuilds the exact graph the run executed on.
        rebuilt, record = graph_from_store(tmp_path / "store", run_hash)
        assert record["hash"] == run_hash
        assert rebuilt.n_edges == info["n_edges"]

    def test_unknown_store_hash_is_clean_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append({"hash": "abcd1234", "spec": {"graph": {
            "kind": "generate", "n_nodes": 10, "n_edges": 20}}, "status": "ok"})
        with pytest.raises(GraphSourceError, match="no record"):
            graph_from_store(tmp_path / "store", "ffff")

    def test_ambiguous_prefix_is_clean_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for key in ("ab01", "ab02"):
            store.append({"hash": key, "spec": {}, "status": "ok"})
        with pytest.raises(GraphSourceError, match="ambiguous"):
            graph_from_store(tmp_path / "store", "ab")

    def test_duplicate_name_needs_replace(self, service, serve_graph):
        with pytest.raises(ServeError, match="already loaded") as excinfo:
            service.load_graph("g", graph=serve_graph.copy(), fraction=0.1)
        assert excinfo.value.status == 409
        service.load_graph("g", graph=serve_graph.copy(), fraction=0.1,
                           replace=True)
        assert service.info("g")["n_queries"] == 0

    def test_unload(self, service):
        info = service.unload("g")
        assert info["name"] == "g"
        with pytest.raises(UnknownGraphError):
            service.query("g", [0])

    def test_bad_propagator_and_method(self, serve_graph):
        service = InferenceService()
        with pytest.raises(ServeError, match="invalid propagator_kwargs"):
            service.load_graph("x", graph=serve_graph.copy(),
                               propagator_kwargs={"nope": 1})
        with pytest.raises(ServeError, match="unknown estimator"):
            service.load_graph("x", graph=serve_graph.copy(), method="nope")


class TestQueries:
    def test_query_matches_propagation_result_slice(self, service):
        # The serving answer must be exactly the session's current
        # PropagationResult rows — no transformation, no copy drift.
        session = service._served("g").session
        beliefs = session.last_result.beliefs
        labels = session.last_result.labels
        nodes = np.array([0, 17, 421, 5])
        result = service.query("g", nodes)
        np.testing.assert_array_equal(result.beliefs, beliefs[nodes])
        np.testing.assert_array_equal(result.labels, labels[nodes])
        assert result.belief_version == 1
        assert result.staleness["pending_deltas"] == 0

    def test_top_k_ranking(self, service):
        result = service.query("g", [3, 9], top_k=2)
        for row, ranking in zip(np.asarray(result.beliefs), result.top):
            assert len(ranking) == 2
            assert ranking[0][1] >= ranking[1][1]
            assert ranking[0][0] == int(np.argmax(row))
            assert ranking[0][1] == pytest.approx(float(row.max()))

    def test_invalid_queries(self, service):
        with pytest.raises(ServeError, match="at least one node"):
            service.query("g", [])
        with pytest.raises(ServeError, match="0..599"):
            service.query("g", [600])
        with pytest.raises(ServeError, match="0..599"):
            service.query("g", [-1])
        with pytest.raises(ServeError, match="top_k"):
            service.query("g", [0], top_k=7)
        with pytest.raises(UnknownGraphError):
            service.query("missing", [0])

    def test_query_many_isolates_per_request_errors(self, service):
        results = service.query_many("g", [([0, 1], None), ([9999], None),
                                           ([2], 1)])
        assert isinstance(results[1], ServeError)
        np.testing.assert_array_equal(results[0].nodes, [0, 1])
        assert results[2].top is not None

    def test_query_many_isolates_unrepresentable_inputs(self, service):
        # int64-overflowing node ids and non-numeric top_k must fail only
        # their own request, never the coalesced siblings.
        results = service.query_many("g", [
            ([2**70], None),          # OverflowError inside np.asarray
            ([0], "abc"),             # ValueError inside int()
            (["x"], None),            # non-numeric node
            ([3], 1),
        ])
        assert isinstance(results[0], ServeError)
        assert isinstance(results[1], ServeError)
        assert isinstance(results[2], ServeError)
        np.testing.assert_array_equal(results[3].nodes, [3])

    @pytest.mark.parametrize("nodes, top_k, min_version", [
        ([1.7], None, None),
        (["5"], None, None),
        ([True], None, None),
        ([0], 2.9, None),
        ([0], True, None),
        ([0], "2", None),
        ([0], [2], None),
        ([0], None, 0.5),
    ])
    def test_non_integer_ids_are_rejected(self, service, nodes, top_k,
                                          min_version):
        with pytest.raises(ServeError) as excinfo:
            service.query("g", nodes, top_k, min_version)
        assert excinfo.value.status == 400
        assert "integer" in str(excinfo.value)

    def test_query_many_matches_individual_queries(self, service):
        requests = [([5, 6], 2), ([100, 3, 7], None), ([0], 1)]
        batched = service.query_many("g", requests)
        for (nodes, top_k), result in zip(requests, batched):
            individual = service.query("g", nodes, top_k)
            np.testing.assert_array_equal(individual.beliefs, result.beliefs)
            np.testing.assert_array_equal(individual.labels, result.labels)
            assert individual.top == result.top


class TestCacheAndStaleness:
    def test_delta_invalidates_cache_and_resets_staleness(self, service):
        before = service.query("g", [1, 2, 3])
        again = service.query("g", [1, 2, 3])
        assert again.staleness["queries_since_refresh"] >= 1

        outcome = service.apply_delta("g", GraphDelta(add_edges=[[1, 599]]))
        assert outcome.n_applied == 1
        assert outcome.mode in ("incremental", "full")

        after = service.query("g", [1, 2, 3])
        assert after.belief_version == before.belief_version + 1
        assert after.graph_version == before.graph_version + 1
        assert after.staleness["queries_since_refresh"] == 0
        # Node 1 gained an edge: its belief row must have moved.
        assert np.abs(np.asarray(after.beliefs)
                      - np.asarray(before.beliefs)).max() > 0

    def test_staleness_counts_with_obs_disabled(self, service):
        previous = obs.set_enabled(False)
        try:
            service.query("g", [1])
            second = service.query("g", [1])
            assert second.staleness["queries_since_refresh"] == 1
            adjacency = service._served("g").session.graph.adjacency
            target = int(np.flatnonzero(adjacency[1].toarray()[0] == 0)[-1])
            applied = service.apply_and_log(
                "g", [GraphDelta(add_edges=[[1, target]])]
            )
            assert not applied.propagated
            assert service.info("g")["staleness"]["pending_deltas"] == 1
            service.propagate_and_publish(applied)
            after = service.query("g", [1])  # the publish covers the delta
            assert after.staleness["queries_since_refresh"] == 0
            assert after.staleness["pending_deltas"] == 0
        finally:
            obs.set_enabled(previous)

    def test_delta_beliefs_match_fresh_full_solve(self, service):
        # Serving answers after a delta equal a cold solve on the same
        # mutated graph (the streaming subsystem's correctness contract,
        # re-checked through the serving surface).
        service.apply_delta("g", GraphDelta(add_edges=[[0, 599], [4, 321]]))
        served = service._served("g")
        session = served.session
        propagator = type(session.propagator)(
            max_iterations=session.propagator.max_iterations,
            tolerance=session.propagator.tolerance,
        )
        from repro.graph.graph import Graph

        cold = propagator.propagate(
            Graph(adjacency=session.graph.adjacency.copy(),
                  labels=session.graph.labels,
                  n_classes=session.graph.n_classes),
            session.seed_labels,
            compatibility=session.compatibility,
        )
        nodes = [0, 4, 321, 599, 77]
        result = service.query("g", nodes)
        np.testing.assert_allclose(
            result.beliefs, cold.beliefs[np.asarray(nodes)], atol=1e-6
        )


class TestDeltas:
    def test_batch_coalesces_into_one_propagation(self, service):
        solves_before = service.info("g")["n_solves"]
        outcome = service.apply_deltas("g", [
            GraphDelta(add_edges=[[0, 598]]),
            GraphDelta(add_edges=[[1, 597]]),
            GraphDelta(add_edges=[[2, 596]]),
        ])
        assert outcome.n_applied == 3
        assert outcome.errors == [None, None, None]
        assert service.info("g")["n_solves"] == solves_before + 1

    def test_rejected_delta_does_not_block_siblings(self, service):
        adjacency = service._served("g").session.graph.adjacency
        assert adjacency[3, 594] == 0  # removal below must target a non-edge
        outcome = service.apply_deltas("g", [
            GraphDelta(add_edges=[[0, 595]]),
            GraphDelta(remove_edges=[[3, 594]]),
            {"add_edges": [[5, 593]]},        # dict form is accepted
            {"bogus_field": 1},               # rejected at parse time
        ])
        assert outcome.n_deltas == 4
        # The removal targets an absent edge -> strict mode rejects it.
        assert outcome.errors[0] is None
        assert outcome.errors[1] is not None
        assert outcome.errors[2] is None
        assert outcome.errors[3] is not None
        assert outcome.n_applied == 2

    def test_single_rejected_delta_raises(self, service):
        with pytest.raises(ServeError, match="delta rejected"):
            service.apply_delta(
                "g", GraphDelta(remove_edges=[[10, 590]])
            )

    @pytest.mark.parametrize("record", [
        {"add_edges": [[0.9, 5]]},
        {"remove_edges": [[0, 1.0]]},
        {"reveal": [[3, 1.5]]},
        {"reveal": [["3", 1]]},
        {"add_nodes": 1, "node_labels": [0.5]},
        {"add_nodes": 1.5},
        {"add_nodes": [1]},
    ])
    def test_non_integer_delta_ids_are_rejected_before_the_log(
        self, serve_graph, tmp_path, record
    ):
        service = InferenceService(queue_dir=tmp_path / "queues")
        service.load_graph("g", graph=serve_graph.copy(), fraction=0.1)
        with pytest.raises(ServeError, match="integer") as excinfo:
            service.apply_delta("g", record)
        assert excinfo.value.status == 400
        assert service.queue.replay("g") == []
        assert service.info("g")["graph_version"] == 0

    def test_all_rejected_means_no_propagation(self, service):
        version = service.info("g")["belief_version"]
        outcome = service.apply_deltas(
            "g", [{"nope": 1}, GraphDelta(remove_edges=[[20, 580]])]
        )
        assert outcome.n_applied == 0
        assert outcome.mode is None
        assert service.info("g")["belief_version"] == version


class TestStats:
    def test_service_stats_aggregate(self, service, serve_graph):
        service.load_graph("h", graph=serve_graph.copy(), fraction=0.1)
        service.query("g", [0])
        service.query("h", [1])
        stats = service.stats()
        assert stats["n_graphs"] == 2
        assert stats["n_queries"] == 2
        assert set(stats["graphs"]) == {"g", "h"}
        assert stats["graphs"]["g"]["staleness"]["queries_since_refresh"] == 1

    def test_served_counts_do_not_depend_on_obs(self, serve_graph, tmp_path):
        # Graph info, decision stats and the service tallies are plain
        # state: a run with REPRO_OBS=off reports what the same run with
        # obs on does, a redo-log replay included.
        path = save_graph_npz(serve_graph, tmp_path / "g.npz")

        def drive(run: str) -> dict:
            service = InferenceService(queue_dir=tmp_path / run)
            service.load_graph("a", path=path, fraction=0.1, seed=1)
            service.query("a", [1, 2])
            service.query("a", [3])
            service.apply_delta("a", GraphDelta(add_edges=[[1, 599]]))
            # A new process over the same queue replays the delta.
            service = InferenceService(queue_dir=tmp_path / run)
            service.load_graph("a", path=path, fraction=0.1, seed=1, recover=True)
            service.query("a", [1])
            stats = service.stats()
            counts = {key: stats[key] for key in (
                "n_queries", "n_deltas", "n_solves",
            )}
            info = stats["graphs"]["a"]
            for key in ("n_queries", "n_deltas", "n_solves", "n_incremental",
                        "n_localized", "n_full"):
                counts[key + "[a]"] = info[key]
            counts["mode_counts"] = info["decisions"]["mode_counts"]
            counts["touched_nnz_total"] = info["decisions"]["touched_nnz_total"]
            return counts

        observed = drive("on")
        assert observed["n_queries[a]"] == 1 and observed["n_deltas[a]"] == 1
        assert observed["touched_nnz_total"] > 0
        previous = obs.set_enabled(False)
        try:
            assert drive("off") == observed
        finally:
            obs.set_enabled(previous)

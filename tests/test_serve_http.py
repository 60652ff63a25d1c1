"""HTTP round-trip tests for the serving endpoint (stdlib client only)."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.io import save_graph_npz
from repro.serve import InferenceService, MicroBatcher, make_server
from repro.serve.http import MAX_BODY_BYTES, ServeHandler


@pytest.fixture(scope="module")
def http_graph():
    return generate_graph(
        300, 1_500, skew_compatibility(3, h=3.0), seed=6, name="http-test"
    )


@pytest.fixture()
def server(http_graph):
    service = InferenceService()
    service.load_graph(
        "g", graph=http_graph.copy(), fraction=0.1, seed=3
    )
    batcher = MicroBatcher(service, max_latency_seconds=0.005)
    server = make_server(service, port=0, batcher=batcher)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=5)


def call(server, method: str, path: str, body: dict | None = None):
    """One JSON request against the test server; returns (status, payload)."""
    port = server.server_address[1]
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = call(server, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["problems"] == []
        assert payload["graphs"]["g"]["live"] is True
        assert payload["graphs"]["g"]["belief_version"] >= 1
        assert set(payload["graphs"]["g"]["staleness"]) == {
            "queries_since_refresh", "snapshot_age_seconds", "pending_deltas",
        }
        batcher = payload["batcher"]
        assert batcher["queue_depth"] < batcher["max_queue"]
        assert 0.0 <= batcher["saturation"] < 1.0

    def test_alerts_disabled_without_recorder(self, server):
        status, payload = call(server, "GET", "/alerts")
        assert status == 200
        assert payload == {"enabled": False, "alerts": []}

    def test_query_round_trip(self, server):
        status, payload = call(
            server, "POST", "/graphs/g/query",
            {"nodes": [0, 7, 42], "top_k": 2},
        )
        assert status == 200
        assert payload["nodes"] == [0, 7, 42]
        assert len(payload["beliefs"]) == 3
        assert len(payload["beliefs"][0]) == 3  # k classes
        assert len(payload["top"][0]) == 2
        assert set(payload["staleness"]) == {
            "queries_since_refresh", "snapshot_age_seconds", "pending_deltas",
        }
        service = server.service
        expected = service._served("g").session.last_result.beliefs[[0, 7, 42]]
        np.testing.assert_allclose(payload["beliefs"], expected)

    def test_delta_then_query_reflects_it(self, server):
        _, before = call(server, "POST", "/graphs/g/query", {"nodes": [0]})
        status, outcome = call(
            server, "POST", "/graphs/g/delta", {"add_edges": [[0, 299]]},
        )
        assert status == 200
        assert outcome["n_applied"] == 1
        assert outcome["belief_version"] == before["belief_version"] + 1
        _, after = call(server, "POST", "/graphs/g/query", {"nodes": [0]})
        assert after["belief_version"] == before["belief_version"] + 1
        assert after["staleness"]["queries_since_refresh"] == 0
        assert np.abs(
            np.asarray(after["beliefs"]) - np.asarray(before["beliefs"])
        ).max() > 0

    def test_load_query_unload_cycle(self, server, http_graph, tmp_path):
        path = save_graph_npz(http_graph, tmp_path / "extra.npz")
        status, payload = call(
            server, "POST", "/graphs",
            {"name": "extra", "path": str(path), "fraction": 0.1},
        )
        assert status == 201
        assert payload["loaded"]["n_nodes"] == 300

        status, info = call(server, "GET", "/graphs/extra")
        assert status == 200
        assert info["belief_version"] == 1

        status, _ = call(server, "POST", "/graphs/extra/query", {"nodes": [1]})
        assert status == 200

        status, payload = call(server, "DELETE", "/graphs/extra")
        assert status == 200
        assert payload["unloaded"]["n_queries"] == 1

        status, _ = call(server, "POST", "/graphs/extra/query", {"nodes": [1]})
        assert status == 404

    def test_quality_endpoints(self, server, http_graph):
        service = server.service
        session = service._served("g").session
        truth = http_graph.require_labels()
        hidden = np.flatnonzero(session.seed_labels < 0)[:4]
        status, outcome = call(
            server, "POST", "/graphs/g/delta",
            {"reveal": [[int(n), int(truth[n])] for n in hidden]},
        )
        assert status == 200, outcome

        status, quality = call(server, "GET", "/graphs/g/quality")
        assert status == 200
        assert quality["graph"] == "g"
        assert quality["prequential"]["scored"] == 4
        assert 0.0 <= quality["prequential"]["accuracy"] <= 1.0
        assert quality["drift"]["value"] is not None
        assert quality["churn"]["steps"] >= 1

        status, fleet = call(server, "GET", "/quality")
        assert status == 200
        assert fleet["scored"] == 4
        assert fleet["accuracy"] == quality["prequential"]["accuracy"]
        assert fleet["max_drift"] == quality["drift"]["value"]
        assert fleet["graphs"]["g"]["prequential"]["scored"] == 4

        status, _ = call(server, "GET", "/graphs/nope/quality")
        assert status == 404

    def test_stats_includes_batcher(self, server):
        call(server, "POST", "/graphs/g/delta", {"add_edges": [[3, 297]]})
        call(server, "POST", "/graphs/g/query", {"nodes": [3]})
        status, stats = call(server, "GET", "/stats")
        assert status == 200
        assert stats["n_graphs"] == 1
        assert stats["n_queries"] == 1
        batcher = stats["batcher"]
        assert batcher["n_flushes"] == batcher["n_deltas"] == 1
        # Queries are answered on the handler thread, never queued.
        assert "n_queries" not in batcher
        assert "g" in stats["graphs"]

    def test_query_answers_while_a_delta_waits_in_the_batcher(
        self, http_graph
    ):
        service = InferenceService()
        service.load_graph("g", graph=http_graph.copy(), fraction=0.1, seed=3)
        server = make_server(
            service, port=0,
            batcher=MicroBatcher(service, max_latency_seconds=1.0),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        delta_reply: list = []

        def send_delta():
            start = time.perf_counter()
            reply = call(server, "POST", "/graphs/g/delta",
                         {"add_edges": [[4, 296]]})
            delta_reply.append((reply, time.perf_counter() - start))

        writer = threading.Thread(target=send_delta)
        try:
            writer.start()
            deadline = time.monotonic() + 5.0
            while (server.batcher.saturation()["queue_depth"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            start = time.perf_counter()
            status, payload = call(server, "POST", "/graphs/g/query",
                                   {"nodes": [4]})
            elapsed = time.perf_counter() - start
            assert status == 200
            # The delta is still pending, so the answer predates it.
            assert server.batcher.saturation()["queue_depth"] == 1
            assert payload["graph_version"] == 0
            assert elapsed < 0.5
            writer.join(timeout=10.0)
            (status, ack), delta_seconds = delta_reply[0]
            assert status == 200 and ack["graph_version"] == 1
            assert delta_seconds >= 0.9  # the delta waited out its budget
            _, payload = call(server, "POST", "/graphs/g/query", {"nodes": [4]})
            assert payload["graph_version"] == 1
        finally:
            writer.join(timeout=10.0)
            server.close()
            thread.join(timeout=5)

    def test_query_span_is_a_child_of_its_request_span(self, server):
        from repro import obs

        records: list[dict] = []
        previous = obs.configure_tracing(records.append)
        try:
            port = server.server_address[1]
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/graphs/g/query", method="POST",
                data=json.dumps({"nodes": [1, 2]}).encode("utf-8"),
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                trace = response.headers["X-Repro-Trace"]
            # The request span closes just after the response is written.
            deadline = time.monotonic() + 5.0
            while (not any(r["name"] == "http.request" for r in records)
                   and time.monotonic() < deadline):
                time.sleep(0.005)
        finally:
            obs.configure_tracing(previous)
        requests = [r for r in records if r["name"] == "http.request"]
        queries = [r for r in records if r["name"] == "serve.query"]
        assert len(requests) == 1 and len(queries) == 1
        assert requests[0]["trace"] == queries[0]["trace"] == trace
        assert queries[0]["parent"] == requests[0]["span"]
        assert queries[0]["thread"] == requests[0]["thread"]


class TestKeepAlive:
    """Responses leave as one write on a NODELAY socket: no delayed-ACK stall."""

    def test_sequential_requests_on_one_connection_do_not_stall(
        self, server, keepalive_probe
    ):
        port = server.server_address[1]
        for method, path, payload in (
            ("GET", "/healthz", None),
            ("POST", "/graphs/g/query", {"nodes": [0, 7, 42], "top_k": 2}),
        ):
            median, writes, replies = keepalive_probe(
                ServeHandler, port, method, path, payload
            )
            # Headers and body in two sends waited ~44 ms for the client's
            # delayed ACK on every request.
            assert median < 0.020, f"{path}: median {median * 1e3:.1f} ms"
            assert len(writes) == len(replies) == 20
            for write, reply in zip(writes, replies):
                assert write.startswith(b"HTTP/1.1 200 ")
                assert write.endswith(b"\r\n\r\n" + reply)


class TestSloHealth:
    """SLO recorder wiring: /healthz degradation and /alerts."""

    @pytest.fixture()
    def slo_server(self, http_graph):
        from repro import obs
        from repro.obs.timeseries import TimeSeriesRecorder, registry_source

        with obs.use_registry() as registry:
            service = InferenceService(registry=registry)
            service.load_graph(
                "g", graph=http_graph.copy(), fraction=0.1, seed=3,
            )
            clock = [1000.0]
            recorder = TimeSeriesRecorder(
                registry_source([registry]), interval_seconds=1.0,
                clock=lambda: clock[0],
            )
            recorder.attach_slo(obs.SloSpec.from_dict({"rules": [
                {"name": "p99-latency", "kind": "quantile_max",
                 "metric": "repro_http_request_seconds",
                 "q": 0.99, "max": 0.001, "window_seconds": 3600},
            ]}))
            server = make_server(service, port=0, recorder=recorder)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                yield server, recorder, clock
            finally:
                server.close()
                thread.join(timeout=5)

    def test_latency_breach_degrades_healthz_naming_the_rule(self, slo_server):
        server, recorder, clock = slo_server
        recorder.sample()

        status, payload = call(server, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True
        assert payload["slo"] == {"rules": 1, "firing": []}

        # Inject a latency breach: observations far above the 1 ms bound.
        server.service.registry.histogram(
            "repro_http_request_seconds", "", method="GET",
        ).observe(0.5)
        clock[0] += 1.0
        recorder.sample()

        status, payload = call(server, "GET", "/healthz")
        assert status == 503
        assert payload["ok"] is False
        assert payload["slo"]["firing"] == ["p99-latency"]
        assert any("p99-latency" in problem for problem in payload["problems"])

        status, payload = call(server, "GET", "/alerts")
        assert status == 200
        assert payload["enabled"] is True
        assert payload["firing"] == ["p99-latency"]
        alert = payload["alerts"][0]
        assert alert["kind"] == "quantile_max" and alert["firing"] is True


class TestErrorMapping:
    def test_unknown_route_is_404(self, server):
        assert call(server, "GET", "/nope")[0] == 404
        assert call(server, "POST", "/graphs/g/bogus", {})[0] == 404

    def test_unknown_graph_is_404(self, server):
        status, payload = call(server, "POST", "/graphs/missing/query",
                               {"nodes": [0]})
        assert status == 404
        assert "no graph named" in payload["error"]

    def test_bad_nodes_is_400(self, server):
        status, payload = call(server, "POST", "/graphs/g/query",
                               {"nodes": [12345]})
        assert status == 400
        assert "0..299" in payload["error"]

    # [True]: the caller passes a batcher; [False]: the server builds one.
    @pytest.mark.parametrize("explicit_batcher", [True, False])
    def test_non_integer_ids_are_400_and_never_logged(
        self, http_graph, tmp_path, explicit_batcher
    ):
        service = InferenceService(queue_dir=tmp_path / "queues")
        service.load_graph("g", graph=http_graph.copy(), fraction=0.1, seed=3)
        batcher = MicroBatcher(service) if explicit_batcher else None
        server = make_server(service, port=0, batcher=batcher)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for body in ({"nodes": [1.7]}, {"nodes": ["5"]},
                         {"nodes": [True]}, {"nodes": [0], "top_k": 2.9},
                         {"nodes": [0], "min_version": "0"}):
                status, payload = call(server, "POST", "/graphs/g/query", body)
                assert status == 400, body
                assert "integer" in payload["error"]
            for body in ({"add_edges": [[0.9, 5]]},
                         {"remove_edges": [[0, True]]},
                         {"reveal": [[7, 1.0]]}):
                status, payload = call(server, "POST", "/graphs/g/delta", body)
                assert status == 400, body
                assert "integers" in payload["error"]
            assert service.queue.replay("g") == []
            assert service.info("g")["graph_version"] == 0
        finally:
            server.close()
            thread.join(timeout=5)

    # [True]: the caller passes a batcher; [False]: the server builds one.
    @pytest.mark.parametrize("explicit_batcher", [True, False])
    def test_non_finite_weights_are_400_and_never_logged(
        self, http_graph, tmp_path, explicit_batcher
    ):
        service = InferenceService(queue_dir=tmp_path / "queues")
        service.load_graph("g", graph=http_graph.copy(), fraction=0.1, seed=3)
        batcher = MicroBatcher(service) if explicit_batcher else None
        server = make_server(service, port=0, batcher=batcher)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # json.dumps writes NaN/Infinity, which the handler's parser accepts.
            for weight in (float("nan"), float("inf")):
                body = {"add_edges": [[0, 2]], "add_weights": [weight]}
                status, payload = call(server, "POST", "/graphs/g/delta", body)
                assert status == 400, body
                assert "finite" in payload["error"]
            assert service.queue.replay("g") == []
            assert service.info("g")["graph_version"] == 0
            status, payload = call(server, "POST", "/graphs/g/query",
                                   {"nodes": [0, 2]})
            assert status == 200
            assert np.isfinite(np.asarray(payload["beliefs"])).all()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_malformed_json_is_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/graphs/g/query",
            data=b"{not json", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_body_is_413_without_reading_it(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        try:
            conn.putrequest("POST", "/graphs/g/delta")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert "too large" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_unknown_payload_fields_are_400(self, server):
        status, payload = call(server, "POST", "/graphs/g/query",
                               {"nodes": [0], "surprise": 1})
        assert status == 400
        assert "surprise" in payload["error"]

    def test_unknown_ack_mode_is_400_and_never_applied(self, server):
        status, payload = call(server, "POST", "/graphs/g/delta",
                               {"add_edges": [[0, 2]], "ack": "eventually"})
        assert status == 400
        assert "ack must be" in payload["error"]
        assert server.service.info("g")["graph_version"] == 0

    def test_duplicate_load_is_409(self, server, http_graph, tmp_path):
        path = save_graph_npz(http_graph, tmp_path / "dup.npz")
        status, payload = call(
            server, "POST", "/graphs", {"name": "g", "path": str(path)},
        )
        assert status == 409
        assert "already loaded" in payload["error"]

    def test_load_missing_file_is_400(self, server):
        status, payload = call(
            server, "POST", "/graphs",
            {"name": "ghost", "path": "/nonexistent/g.npz"},
        )
        assert status == 400
        assert "not found" in payload["error"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"propagator_kwargs": {"bogus": 1}}, "invalid propagator_kwargs"),
            ({"propagator_kwargs": [1, 2]}, "must be a JSON object"),
            ({"propagator_kwargs": {"max_iterations": 5}}, "invalid propagator_kwargs"),
            ({"propagator": "bp"}, "unknown load fields"),
        ],
        ids=["unknown-kwarg", "not-a-mapping", "iterations-clash", "propagator-field"],
    )
    def test_bad_propagator_load_is_400(
        self, server, http_graph, tmp_path, fields, message
    ):
        path = save_graph_npz(http_graph, tmp_path / "bad.npz")
        # An unknown estimator would fail too, so a 400 naming the
        # propagator proves the check runs before any estimation.
        body = {"name": "x", "path": str(path), "method": "nope", **fields}
        status, payload = call(server, "POST", "/graphs", body)
        assert status == 400
        assert message in payload["error"]
        assert call(server, "GET", "/graphs/x")[0] == 404

"""Integration tests: obs instrumentation wired through serve, stream,
runner, and the CLI."""

from __future__ import annotations

import json
import re
import threading
import urllib.request

import pytest

from repro import cli, obs
from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.propagation.engine import PROPAGATORS
from repro.runner.spec import GridSpec
from repro.runner.executor import execute_grid
from repro.serve import InferenceService, MicroBatcher, make_server
from repro.stream.session import StreamingSession


@pytest.fixture(scope="module")
def obs_graph():
    return generate_graph(
        300, 1_500, skew_compatibility(3, h=3.0), seed=9, name="obs-test"
    )


@pytest.fixture()
def registry():
    with obs.use_registry() as swapped:
        yield swapped


@pytest.fixture()
def server(obs_graph, registry):
    service = InferenceService(registry=registry)
    service.load_graph(
        "g", graph=obs_graph.copy(), fraction=0.1, seed=3
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


def fetch(server, path, body=None):
    port = server.server_address[1]
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        method="GET" if body is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


class TestMetricsEndpoint:
    def test_serves_prometheus_with_core_series(self, server):
        fetch(server, "/graphs/g/query", {"nodes": [1, 2, 3], "top_k": 2})
        fetch(server, "/graphs/g/query", {"nodes": [1, 2, 3], "top_k": 2})
        status, headers, body = fetch(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        families = set(re.findall(r"^# TYPE (repro_[a-z_]+)", text, re.M))
        assert len(families) >= 12
        for name in (
            "repro_serve_queries_total",
            "repro_engine_solves_total",
            "repro_engine_solve_seconds",
            "repro_batcher_flushes_total",
            "repro_batcher_queue_depth",
            "repro_http_requests_total",
            "repro_stream_solves_total",
        ):
            assert name in families, f"missing metric family {name}"
        assert 'repro_serve_queries_total{graph="g"}' in text

    def test_every_response_carries_trace_header(self, server):
        _, headers, _ = fetch(server, "/healthz")
        assert re.fullmatch(r"[0-9a-f]{16}", headers["X-Repro-Trace"])
        _, other, _ = fetch(server, "/healthz")
        assert other["X-Repro-Trace"] != headers["X-Repro-Trace"]

    def test_graph_stats_json_shape_unchanged(self, server):
        fetch(server, "/graphs/g/query", {"nodes": [5], "top_k": 1})
        _, _, body = fetch(server, "/graphs/g/stats")
        stats = json.loads(body)
        assert stats["mode_counts"] == {
            "full": 1, "incremental": 0, "localized": 0,
        }
        assert stats["n_full"] == 1 and stats["n_solves"] == 1
        assert isinstance(stats["touched_nnz_total"], int)
        _, _, body = fetch(server, "/graphs/g")
        info = json.loads(body)
        assert {"n_queries", "n_deltas", "staleness"} <= set(info)


class TestBatcherSpanHop:
    def test_flush_span_parented_to_submitter(self, obs_graph, registry):
        service = InferenceService(registry=registry)
        service.load_graph("g", graph=obs_graph.copy(), fraction=0.1, seed=3)
        batcher = MicroBatcher(service, max_latency_seconds=0.002)
        records: list[dict] = []
        previous = obs.configure_tracing(records.append)
        try:
            with obs.span("client.request") as root:
                batcher.query("g", [1, 2, 3], top_k=2)
        finally:
            obs.configure_tracing(previous)
            batcher.close()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], record)
        assert "batcher.flush_query" in by_name
        flush = by_name["batcher.flush_query"]
        client = by_name["client.request"]
        # The flush ran on the batcher worker thread, yet its span is
        # parented to the submitting client's span in the same trace.
        assert flush["trace"] == client["trace"]
        assert flush["parent"] == client["span"]
        assert flush["thread"] != client["thread"]


class TestMultiprocessMerge:
    def _grid(self):
        return GridSpec(
            graphs=[
                {"kind": "generate", "name": "obs-a", "n_nodes": 150,
                 "n_edges": 750, "n_classes": 3, "h": 3.0, "seed": 1},
                {"kind": "generate", "name": "obs-b", "n_nodes": 150,
                 "n_edges": 750, "n_classes": 3, "h": 3.0, "seed": 2},
            ],
            estimators=["MCE", "LCE"],
            label_fractions=[0.1],
            n_repetitions=2,
            base_seed=5,
            name="obs-merge-test",
        )

    def _run_counts(self, n_workers):
        with obs.use_registry() as swapped:
            report = execute_grid(self._grid(), n_workers=n_workers)
            assert report.n_errors == 0
            ok = swapped.get("repro_runner_runs_total", status="ok")
            solve_hist = swapped.get("repro_runner_run_seconds")
            return ok.value, solve_hist.count

    def test_pooled_worker_metrics_match_serial(self):
        serial_runs, serial_times = self._run_counts(n_workers=1)
        pooled_runs, pooled_times = self._run_counts(n_workers=2)
        assert serial_runs == self._grid().n_runs
        assert pooled_runs == serial_runs
        assert pooled_times == serial_times


class TestDisabledSwitch:
    def test_off_freezes_engine_metrics_but_not_numerics(self, obs_graph, registry):
        import numpy as np

        from repro.eval.seeding import stratified_seed_labels

        seed_labels = stratified_seed_labels(
            obs_graph.require_labels(), fraction=0.1, rng=3
        )
        session_on = StreamingSession(
            obs_graph.copy(), PROPAGATORS["linbp"](),
            compatibility=skew_compatibility(3, h=3.0), seed_labels=seed_labels,
        )
        on_result = session_on.propagate()
        assert session_on.mode_counts["full"] == 1
        assert registry.get("repro_engine_solves_total",
                            propagator="linbp", path="cold").value >= 1

        previous = obs.set_enabled(False)
        try:
            before = registry.snapshot()
            session_off = StreamingSession(
                obs_graph.copy(), PROPAGATORS["linbp"](),
                compatibility=skew_compatibility(3, h=3.0),
                seed_labels=seed_labels,
            )
            off_result = session_off.propagate()
            # No metric in the registry moved while disabled...
            assert obs.diff_snapshots(before, registry.snapshot()) == {
                "families": {}
            }
        finally:
            obs.set_enabled(previous)
        # ...and the numerics are bit-identical either way.
        np.testing.assert_array_equal(
            on_result.result.beliefs, off_result.result.beliefs
        )


class TestStatsCommand:
    def test_stats_renders_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"trace": "t1", "span": "a", "parent": null, "name": "request",'
            ' "ts": 1.0, "duration_ms": 10.0}\n'
            '{"trace": "t1", "span": "b", "parent": "a", "name": "solve",'
            ' "ts": 1.0, "duration_ms": 8.0}\n'
        )
        assert cli.main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans across 1 traces" in out
        assert "slowest trace t1" in out

    def test_stats_json_output(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"trace": "t", "span": "a", "name": "x", "duration_ms": 2.0}\n'
        )
        assert cli.main(["stats", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == "x" and rows[0]["count"] == 1

    def test_stats_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

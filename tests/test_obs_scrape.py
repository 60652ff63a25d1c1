"""Federation of registry snapshots fetched as JSON."""

from __future__ import annotations

import http.server
import json
import math
import threading

import pytest

from repro import obs
from repro.obs.scrape import (
    MetricsScraper,
    federate,
    federate_snapshots,
    label_snapshot,
    normalize_endpoint,
)
from repro.obs.timeseries import counter_total


def build_registry() -> obs.MetricsRegistry:
    """One registry exercising every family kind and the escaping paths."""
    registry = obs.MetricsRegistry()
    registry.counter("req_total", "Requests.", method="GET", status="200").inc(7)
    registry.counter("req_total", "Requests.", method="POST", status="500").inc(2)
    registry.counter("plain_total", "No labels.").inc(11)
    registry.gauge("depth", "Queue depth.", queue="q\\1").set(42.5)
    histogram = registry.histogram(
        "lat_seconds", "Latency.", buckets=[0.1, 1.0], path='/a"b'
    )
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(9.0)
    return registry


class SnapshotServer:
    """A ``/metrics`` endpoint answering with ``body()`` and recording the
    ``Accept`` header of every request."""

    def __init__(self, body):
        self.accepts: list[str | None] = []
        accepts = self.accepts

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                accepts.append(self.headers.get("Accept"))
                payload = body().encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.instance = f"127.0.0.1:{self.server.server_address[1]}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


class TestWireFormat:
    def test_snapshot_json_round_trip_is_lossless(self):
        registry = build_registry()
        registry.gauge("inf_gauge", "").set(float("inf"))
        registry.gauge("nan_gauge", "").set(float("nan"))
        rebuilt = obs.MetricsRegistry()
        rebuilt.merge_snapshot(json.loads(json.dumps(registry.snapshot())))
        assert rebuilt.render_prometheus() == registry.render_prometheus()
        assert math.isnan(rebuilt.get("nan_gauge").value)


class TestFederation:
    def _worker_snapshot(self, n_queries: int) -> dict:
        registry = obs.MetricsRegistry()
        registry.counter("q_total", "Queries.", graph="g").inc(n_queries)
        registry.histogram("lat_seconds", "", buckets=[0.1, 1.0]).observe(0.05)
        return registry.snapshot()

    def test_label_snapshot_joins_instance(self):
        labeled = label_snapshot(self._worker_snapshot(3), instance="w1")
        key, _ = labeled["families"]["q_total"]["children"][0]
        assert ["instance", "w1"] in key
        assert ["graph", "g"] in key

    def test_federated_counters_sum_across_instances(self):
        labeled = [
            label_snapshot(self._worker_snapshot(n), instance=f"w{i}")
            for i, n in enumerate((3, 5, 9))
        ]
        federated = federate_snapshots(labeled).snapshot()
        assert counter_total(federated, "q_total") == 17
        # Per-instance series stay distinct.
        assert counter_total(federated, "q_total", {"instance": "w1"}) == 5
        # Histograms sum too: one observation per worker.
        family = federated["families"]["lat_seconds"]
        assert sum(child[1]["count"] for child in family["children"]) == 3

    def test_label_snapshot_replaces_an_existing_instance(self):
        # Re-federating an already federated snapshot relabels, never
        # duplicates, the join key.
        once = label_snapshot(self._worker_snapshot(3), instance="w1")
        twice = label_snapshot(once, instance="router")
        key, child = twice["families"]["q_total"]["children"][0]
        assert key == [["graph", "g"], ["instance", "router"]]
        assert child["value"] == 3

    def test_federated_histograms_sum_bucket_by_bucket(self):
        snapshots = []
        for observations in ((0.05, 0.5), (0.5, 9.0, 9.0)):
            registry = obs.MetricsRegistry()
            histogram = registry.histogram("lat_seconds", "", buckets=[0.1, 1.0])
            for value in observations:
                histogram.observe(value)
            snapshots.append(json.loads(json.dumps(registry.snapshot())))
        federated = federate_snapshots(
            label_snapshot(s, instance=f"w{i}") for i, s in enumerate(snapshots)
        ).snapshot()
        children = dict(
            (dict(map(tuple, key))["instance"], child)
            for key, child in federated["families"]["lat_seconds"]["children"]
        )
        assert children["w0"]["counts"] == [1, 1, 0]
        assert children["w1"]["counts"] == [0, 1, 2]
        assert sum(c["count"] for c in children.values()) == 5
        assert sum(c["sum"] for c in children.values()) == pytest.approx(19.05)

    def test_label_escaping_survives_federation(self):
        # Label values that need escaping in the text exposition reach the
        # federated registry verbatim and render escaped exactly once.
        registry = build_registry()
        server = SnapshotServer(lambda: json.dumps(registry.snapshot()))
        try:
            _, federated = federate(
                [("w", f"http://{server.instance}/metrics")], timeout=5.0
            )
        finally:
            server.close()
        text = federated.render_prometheus()
        assert 'depth{instance="w",queue="q\\\\1"} 42.5' in text
        assert 'path="/a\\"b"' in text
        assert federated.get("depth", instance="w", queue="q\\1").value == 42.5

    def test_federation_matches_sum_of_parts_over_http(self):
        # The full fleet path: each worker serves its snapshot as JSON,
        # federate fetches, labels and merges — the federated total equals
        # the arithmetic sum, next to a local snapshot already in hand.
        registries, servers = [], []
        for n in (7, 13):
            registry = obs.MetricsRegistry()
            registry.counter("q_total", "Queries.").inc(n)
            registries.append(registry)
            servers.append(SnapshotServer(
                lambda r=registry: json.dumps(r.snapshot())
            ))
        local = obs.MetricsRegistry()
        local.counter("q_total", "Queries.").inc(1)
        try:
            targets = [(s.instance, f"http://{s.instance}/metrics") for s in servers]
            instances, registry = federate(
                targets, timeout=5.0, local={"router": local.snapshot()}
            )
        finally:
            for server in servers:
                server.close()
        federated = registry.snapshot()
        assert counter_total(federated, "q_total") == 7 + 13 + 1
        assert counter_total(federated, "q_total", {"instance": "router"}) == 1
        for server, n in zip(servers, (7, 13)):
            assert instances[server.instance]["up"] is True
            assert counter_total(
                federated, "q_total", {"instance": server.instance}
            ) == n
            assert server.accepts == ["application/json"]


class TestEndpoints:
    def test_normalize_endpoint_variants(self):
        assert normalize_endpoint(":8151") == (
            "127.0.0.1:8151", "http://127.0.0.1:8151/metrics"
        )
        assert normalize_endpoint("host:9") == ("host:9", "http://host:9/metrics")
        assert normalize_endpoint("http://h:1/custom") == (
            "h:1", "http://h:1/custom"
        )

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MetricsScraper([":8151", "127.0.0.1:8151"])
        with pytest.raises(ValueError, match="at least one"):
            MetricsScraper([])

    def test_scrape_reports_down_instance_without_raising(self):
        scraper = MetricsScraper([":1"], timeout=0.1)  # port 1: refused
        result = scraper.scrape()
        state = result["instances"]["127.0.0.1:1"]
        assert state["up"] is False
        assert state["error"]
        assert result["snapshot"] == {"families": {}}

    def test_text_exposition_counts_as_down(self):
        # An endpoint that ignores Accept and answers Prometheus text is
        # not a snapshot source; it is reported down, never half-read.
        server = SnapshotServer(build_registry().render_prometheus)
        try:
            result = MetricsScraper([f":{server.instance.split(':')[1]}"]).scrape()
        finally:
            server.close()
        state = result["instances"][server.instance]
        assert state["up"] is False and state["snapshot"] is None
        assert result["snapshot"] == {"families": {}}

    @pytest.mark.parametrize("body", ["[]", '{"families": []}', '{"rules": {}}'])
    def test_json_that_is_not_a_snapshot_counts_as_down(self, body):
        server = SnapshotServer(lambda: body)
        try:
            result = MetricsScraper([server.instance]).scrape()
        finally:
            server.close()
        state = result["instances"][server.instance]
        assert state["up"] is False
        assert "did not return a metrics snapshot" in state["error"]
        assert result["snapshot"] == {"families": {}}

    def test_mixed_fleet_federates_only_the_live_instances(self):
        registry = obs.MetricsRegistry()
        registry.counter("q_total", "Queries.").inc(4)
        server = SnapshotServer(lambda: json.dumps(registry.snapshot()))
        try:
            result = MetricsScraper([server.instance, ":1"], timeout=0.5).scrape()
        finally:
            server.close()
        assert result["instances"][server.instance]["up"] is True
        assert result["instances"]["127.0.0.1:1"]["up"] is False
        snapshot = result["snapshot"]
        assert counter_total(snapshot, "q_total") == 4
        assert counter_total(snapshot, "q_total", {"instance": "127.0.0.1:1"}) is None

    def test_scrape_against_live_server(self):
        registry = obs.MetricsRegistry()
        registry.counter("q_total", "Queries.").inc(21)
        server = SnapshotServer(lambda: json.dumps(registry.snapshot()))
        try:
            port = server.instance.split(":")[1]
            snapshot = MetricsScraper([f":{port}"]).scrape()["snapshot"]
            assert counter_total(snapshot, "q_total") == 21
            assert counter_total(
                snapshot, "q_total", {"instance": server.instance}
            ) == 21
        finally:
            server.close()

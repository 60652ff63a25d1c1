"""Tests for the `repro top` client, summary, and rendering."""

from __future__ import annotations

import http.server
import json
import threading

import pytest

from repro import obs
from repro.obs import top as obs_top


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class MetricsStub:
    """A minimal /metrics HTTP server returning a mutable registry's snapshot."""

    def __init__(self):
        self.registry = obs.MetricsRegistry()
        registry = self.registry

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                body = json.dumps(registry.snapshot()).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.port = self.server.server_address[1]

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture()
def workers():
    stubs = [MetricsStub(), MetricsStub()]
    yield stubs
    for stub in stubs:
        stub.close()


def seed_worker(stub: MetricsStub, queries: int, depth: int = 0) -> None:
    stub.registry.counter(
        obs_top.QUERIES, "Queries.", graph="g"
    )._value = float(queries)
    stub.registry.counter(obs_top.HTTP_REQUESTS, "", method="GET", status="200")
    stub.registry.gauge(obs_top.QUEUE_DEPTH, "").set(depth)
    stub.registry.histogram(
        obs_top.HTTP_SECONDS, "", buckets=[0.1, 1.0], method="GET"
    ).observe(0.05)


class TestSparkline:
    def test_scales_to_blocks(self):
        line = obs_top.sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_and_empty(self):
        assert obs_top.sparkline([]) == ""
        assert obs_top.sparkline([5, 5, 5]) == "▁▁▁"

    def test_width_keeps_the_tail(self):
        assert len(obs_top.sparkline(range(100), width=10)) == 10


class TestTopClient:
    def test_federated_totals_sum_per_worker_counters(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=30, depth=2)
        seed_worker(workers[1], queries=12, depth=3)
        client = obs_top.TopClient(
            [f":{w.port}" for w in workers],
            interval_seconds=1.0, window_seconds=60.0, clock=clock,
        )
        client.poll()
        workers[0].registry.counter(obs_top.QUERIES, "", graph="g").inc(10)
        clock.advance(1.0)
        client.poll()
        summary = client.summary()
        fleet = summary["fleet"]
        per_instance = sum(
            row["queries_total"] for row in summary["instances"].values()
        )
        assert fleet["queries_total"] == per_instance == 52
        assert fleet["qps"] == pytest.approx(10.0)
        assert fleet["queue_depth"] == 5
        assert summary["instances_up"] == 2

    def test_down_instance_reported_not_fatal(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=7)
        client = obs_top.TopClient(
            [f":{workers[0].port}", ":1"], timeout=0.2, clock=clock,
        )
        client.poll()
        clock.advance(1.0)
        client.poll()
        summary = client.summary()
        assert summary["instances_up"] == 1
        down = summary["instances"]["127.0.0.1:1"]
        assert down["up"] is False and down["queries_total"] is None
        assert summary["fleet"]["queries_total"] == 7

    def test_render_contains_table_and_sparklines(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=5, depth=1)
        seed_worker(workers[1], queries=9, depth=0)
        client = obs_top.TopClient(
            [f":{w.port}" for w in workers], clock=clock,
        )
        client.poll()
        clock.advance(1.0)
        client.poll()
        text = obs_top.render(client)
        assert "repro top — 2/2 instances up" in text
        assert f"127.0.0.1:{workers[0].port}" in text
        assert "qps" in text and "queue" in text


def seed_quality(stub: MetricsStub, correct: int, wrong: int, drift: float) -> None:
    stub.registry.counter(
        obs_top.PREQUENTIAL, "", outcome="correct", session="s1"
    )._value = float(correct)
    stub.registry.counter(
        obs_top.PREQUENTIAL, "", outcome="wrong", session="s1"
    )._value = float(wrong)
    stub.registry.counter(obs_top.QUALITY_FLIPS, "", session="s1").inc(2)
    stub.registry.gauge(obs_top.QUALITY_DRIFT, "", session="s1").set(drift)


class TestQualityPane:
    def test_summary_quality_block_sums_counters_and_maxes_drift(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=1)
        seed_worker(workers[1], queries=1)
        seed_quality(workers[0], correct=30, wrong=10, drift=0.12)
        seed_quality(workers[1], correct=10, wrong=10, drift=0.48)
        client = obs_top.TopClient(
            [f":{w.port}" for w in workers], clock=clock,
        )
        client.poll()
        quality = client.summary()["quality"]
        assert quality["scored"] == 60
        assert quality["accuracy"] == pytest.approx(40 / 60)
        assert quality["drift_max"] == pytest.approx(0.48)  # worst session
        assert quality["flips_total"] == 4

    def test_window_accuracy_uses_deltas_not_totals(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=1)
        seed_quality(workers[0], correct=100, wrong=100, drift=0.0)
        client = obs_top.TopClient([f":{workers[0].port}"], clock=clock)
        client.poll()
        # Lifetime accuracy is 50%, but everything in the window is correct.
        registry = workers[0].registry
        registry.counter(
            obs_top.PREQUENTIAL, "", outcome="correct", session="s1"
        ).inc(20)
        clock.advance(1.0)
        client.poll()
        quality = client.summary()["quality"]
        assert quality["accuracy"] == pytest.approx(120 / 220)
        assert quality["window_accuracy"] == pytest.approx(1.0)

    def test_accuracy_series_skips_counter_resets(self, workers):
        """A restarted worker resets its counters; the per-interval
        accuracy series must drop that sample instead of emitting a
        negative delta (same clamping contract as counter_delta)."""
        clock = FakeClock()
        seed_worker(workers[0], queries=1)
        seed_quality(workers[0], correct=50, wrong=50, drift=0.0)
        client = obs_top.TopClient([f":{workers[0].port}"], clock=clock)
        client.poll()
        registry = workers[0].registry
        registry.counter(
            obs_top.PREQUENTIAL, "", outcome="correct", session="s1"
        ).inc(10)
        clock.advance(1.0)
        client.poll()
        # Simulated restart: totals fall back below the previous sample.
        registry.counter(
            obs_top.PREQUENTIAL, "", outcome="correct", session="s1"
        )._value = 1.0
        registry.counter(
            obs_top.PREQUENTIAL, "", outcome="wrong", session="s1"
        )._value = 0.0
        clock.advance(1.0)
        client.poll()
        points = obs_top._accuracy_series(client.recorder, 60.0)
        assert len(points) == 1  # only the honest pre-reset interval
        assert points[0][1] == pytest.approx(1.0)
        # And the windowed accuracy built on counter_delta stays clamped.
        quality = client.summary()["quality"]
        assert quality["window_accuracy"] is None or 0 <= quality["window_accuracy"] <= 1

    def test_instance_rows_carry_gauge_values(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=3, depth=7)
        seed_quality(workers[0], correct=1, wrong=0, drift=0.25)
        client = obs_top.TopClient([f":{workers[0].port}"], clock=clock)
        client.poll()
        row = client.summary()["instances"][f"127.0.0.1:{workers[0].port}"]
        assert row["gauges"][obs_top.QUEUE_DEPTH] == 7
        assert row["gauges"][obs_top.QUALITY_DRIFT] == pytest.approx(0.25)

    def test_render_includes_quality_line(self, workers):
        clock = FakeClock()
        seed_worker(workers[0], queries=2)
        seed_quality(workers[0], correct=3, wrong=1, drift=0.2)
        client = obs_top.TopClient([f":{workers[0].port}"], clock=clock)
        client.poll()
        clock.advance(1.0)
        client.poll()
        text = obs_top.render(client)
        assert "quality" in text
        assert "drift" in text

"""Horizontal serving tier: router, worker pool, recovery, fleet reads.

Real subprocess workers (spawned exactly as production does, via
``python -m repro.cli serve``) behind a real router HTTP front-end:

* deterministic session placement shared with :mod:`repro.utils.placement`;
* the single-process JSON API, unchanged, through the proxy;
* ``kill -9`` of a worker: the router respawns it, re-places its
  sessions with ``recover=true``, and the durable queue replay means a
  query carrying the last acknowledged token still answers correctly —
  zero acknowledged deltas lost;
* idempotency ids make proxy retries exactly-once;
* fleet reads: ``/healthz`` aggregation, ``/fleet`` discovery,
  federated ``/metrics``, and ``repro top --router``.

Workers are expensive to spawn (a full interpreter + numpy import), so
one two-worker fleet is module-scoped and every test leaves it healthy.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro import cli
from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.io import save_graph_npz
from repro.serve import ServeError
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.router import Router, RouterHandler, make_router_server
from repro.utils.placement import place

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="subprocess workers use POSIX signals/flock"
)

N_WORKERS = 2


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    graph = generate_graph(
        300, 1_500, skew_compatibility(3, h=3.0), seed=7, name="router-test"
    )
    return save_graph_npz(graph, tmp_path_factory.mktemp("router") / "g.npz")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A running two-worker router + HTTP front-end: (router, base_url)."""
    queue_dir = tmp_path_factory.mktemp("queues")
    router = Router(
        N_WORKERS,
        queue_dir=queue_dir,
        spawn_timeout=120.0,
        supervise_interval=0.2,
    )
    router.start()
    server = make_router_server(router, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield router, base
    server.close()
    thread.join(timeout=10.0)


def request(base: str, method: str, path: str, payload=None, timeout=60.0):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def load_session(base: str, graph_path, name: str, **extra):
    payload = {"name": name, "path": str(graph_path),
               "fraction": 0.1, "seed": 1, **extra}
    status, body = request(base, "POST", "/graphs", payload)
    assert status == 201, body
    return body["loaded"]


def name_owned_by(index: int, prefix: str = "s") -> str:
    """A session name that places onto worker ``index`` (of N_WORKERS)."""
    for attempt in range(1000):
        name = f"{prefix}{attempt}"
        if place(name, N_WORKERS) == index:
            return name
    raise AssertionError("no name found")  # pragma: no cover


# -------------------------------------------------------------- placement
class TestPlacement:
    def test_router_placement_matches_shared_module(self, fleet):
        router, _ = fleet
        for name in ("default", "alpha", "bench", "s17"):
            assert router.place(name) == place(name, N_WORKERS)
            assert router.worker_for(name) is router.workers[router.place(name)]

    def test_sessions_land_on_their_placed_worker(self, fleet, graph_path):
        router, base = fleet
        names = [name_owned_by(i, prefix="placed") for i in range(N_WORKERS)]
        for name in names:
            load_session(base, graph_path, name)
        _, body = request(base, "GET", "/fleet")
        for index, name in enumerate(names):
            assert name in body["workers"][index]["sessions"]

    def test_rejects_invalid_pool_size(self):
        with pytest.raises(ValueError):
            Router(0)


# ------------------------------------------------------- API through proxy
class TestProxiedApi:
    def test_load_query_delta_round_trip(self, fleet, graph_path):
        _, base = fleet
        info = load_session(base, graph_path, "roundtrip")
        assert info["n_nodes"] == 300

        status, body = request(base, "GET", "/graphs/roundtrip")
        assert status == 200
        assert body["name"] == "roundtrip"

        status, body = request(
            base, "POST", "/graphs/roundtrip/delta",
            {"reveal": [[5, 1]], "ack": "applied"},
        )
        assert status == 200
        assert body["token"] == 1
        assert body["propagated"] is False

        status, body = request(
            base, "POST", "/graphs/roundtrip/query",
            {"nodes": [5], "min_version": body["token"]},
        )
        assert status == 200
        assert body["graph_version"] == 1
        assert body["labels"] == [1]

    def test_unknown_session_error_passes_through(self, fleet):
        _, base = fleet
        status, body = request(base, "POST", "/graphs/nope/query", {"nodes": [0]})
        assert status == 404
        assert "nope" in body["error"]

    def test_unload_removes_recovery_recipe(self, fleet, graph_path):
        router, base = fleet
        load_session(base, graph_path, "ephemeral")
        handle = router.worker_for("ephemeral")
        assert "ephemeral" in handle.loads
        status, _ = request(base, "DELETE", "/graphs/ephemeral")
        assert status == 200
        assert "ephemeral" not in handle.loads

    def test_stale_min_version_fences_with_412(self, fleet, graph_path):
        _, base = fleet
        load_session(base, graph_path, "fenced")
        status, body = request(
            base, "POST", "/graphs/fenced/query",
            {"nodes": [0], "min_version": 99},
        )
        assert status == 412
        assert "min_version" in body["error"]


# ------------------------------------------------------- one-send replies
class TestResponsePath:
    def test_keepalive_queries_through_router_do_not_stall(
        self, fleet, graph_path, keepalive_probe
    ):
        _, base = fleet
        load_session(base, graph_path, "keepalive")
        median, writes, replies = keepalive_probe(
            RouterHandler, int(base.rsplit(":", 1)[1]), "POST",
            "/graphs/keepalive/query", {"nodes": [0, 1, 2], "top_k": 1},
        )
        # Router and worker each stalled ~44 ms per request on a delayed
        # ACK while headers and body went out in two sends.
        assert median < 0.020, f"median {median * 1e3:.1f} ms"
        assert len(writes) == len(replies) == 20
        for write, reply in zip(writes, replies):
            assert write.startswith(b"HTTP/1.1 200 ")
            assert write.endswith(b"\r\n\r\n" + reply)

    def test_oversized_body_is_413_without_reading_it(self, fleet):
        _, base = fleet
        conn = http.client.HTTPConnection(
            "127.0.0.1", int(base.rsplit(":", 1)[1]), timeout=10
        )
        try:
            conn.putrequest("POST", "/graphs/anything/delta")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert "too large" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_proxied_reply_relays_the_workers_trace_id(self, traced_fleet):
        base, trace_file = traced_fleet
        trace = traced_query(base)
        requests = worker_request_spans(trace_file, trace)
        assert trace and len(requests) == 1
        assert requests[0]["attrs"]["path"] == "/graphs/traced/query"

    def test_wellformed_inbound_trace_id_reaches_the_worker(self, traced_fleet):
        base, trace_file = traced_fleet
        sent = "00112233aabbccdd"
        assert traced_query(base, sent) == sent
        requests = worker_request_spans(trace_file, sent)
        assert len(requests) == 1
        assert requests[0]["attrs"]["path"] == "/graphs/traced/query"

    @pytest.mark.parametrize("sent", [
        "abc", "00112233aabbccdd0", "00112233AABBCCDD", "../x",
    ], ids=["short", "17-chars", "uppercase", "path"])
    def test_malformed_inbound_trace_id_is_replaced(self, traced_fleet, sent):
        base, trace_file = traced_fleet
        trace = traced_query(base, sent)
        assert trace != sent and re.fullmatch(r"[0-9a-f]{16}", trace)
        # The minted id is the one forwarded: it names the worker's span.
        assert len(worker_request_spans(trace_file, trace)) == 1
        assert worker_request_spans(trace_file, sent) == []


@pytest.fixture(scope="module")
def traced_fleet(graph_path, tmp_path_factory):
    """A one-worker router whose worker appends its spans to a JSONL file."""
    tmp = tmp_path_factory.mktemp("traced")
    trace_file = tmp / "trace.jsonl"
    previous = os.environ.get("REPRO_TRACE")
    os.environ["REPRO_TRACE"] = str(trace_file)  # the worker inherits it
    try:
        router = Router(1, queue_dir=tmp / "q", spawn_timeout=120.0,
                        supervise_interval=3600.0)
        router.start()
    finally:
        if previous is None:
            del os.environ["REPRO_TRACE"]
        else:
            os.environ["REPRO_TRACE"] = previous
    server = make_router_server(router, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        load_session(base, graph_path, "traced")
        yield base, trace_file
    finally:
        server.close()
        thread.join(timeout=10.0)


def traced_query(base: str, trace: str | None = None) -> str:
    """Query session ``traced``, optionally sending a trace id; returns the echo."""
    headers = {} if trace is None else {"X-Repro-Trace": trace}
    req = urllib.request.Request(
        base + "/graphs/traced/query", method="POST", headers=headers,
        data=json.dumps({"nodes": [0]}).encode("utf-8"),
    )
    with urllib.request.urlopen(req, timeout=30.0) as response:
        return response.headers["X-Repro-Trace"]


def worker_request_spans(trace_file, trace: str) -> list[dict]:
    """The worker's ``http.request`` spans of trace ``trace``.

    The worker closes a request span just after writing its response, so
    poll briefly for the line to land.
    """
    deadline = time.monotonic() + 10.0
    while True:
        spans = [json.loads(line)
                 for line in trace_file.read_text().splitlines()]
        found = [span for span in spans
                 if span["name"] == "http.request" and span["trace"] == trace]
        if found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


# ------------------------------------------------------------- recovery
class TestKillRecovery:
    def test_kill9_loses_no_acked_deltas(self, fleet, graph_path):
        """The headline guarantee: ack + kill -9 + retry == read your write."""
        router, base = fleet
        name = "victim"
        load_session(base, graph_path, name)
        tokens = []
        for node in (3, 4, 5, 6):
            status, body = request(
                base, "POST", f"/graphs/{name}/delta",
                {"reveal": [[node, node % 3]], "ack": "applied"},
            )
            assert status == 200
            tokens.append(body["token"])
        assert tokens == [1, 2, 3, 4]

        handle = router.worker_for(name)
        restarts_before = handle.restarts
        os.kill(handle.pid, signal.SIGKILL)

        # First proxied request hits the corpse, triggers recovery inline,
        # and is retried against the respawned worker: the durable queue
        # replay must satisfy the last acknowledged token.
        status, body = request(
            base, "POST", f"/graphs/{name}/query",
            {"nodes": [3, 4, 5, 6], "min_version": tokens[-1]},
        )
        assert status == 200, body
        assert body["graph_version"] == tokens[-1]
        assert body["labels"] == [0, 1, 2, 0]
        assert handle.restarts == restarts_before + 1
        assert name in handle.loads  # recipe survives for the next death

    def test_acked_tokens_keep_working_after_recovery(self, fleet, graph_path):
        router, base = fleet
        name = name_owned_by(router.place("victim"), prefix="sibling")
        load_session(base, graph_path, name)
        status, body = request(
            base, "POST", f"/graphs/{name}/delta",
            {"reveal": [[7, 2]], "ack": "propagated"},
        )
        assert status == 200
        token = body["token"]

        handle = router.worker_for(name)
        os.kill(handle.pid, signal.SIGKILL)
        status, body = request(
            base, "POST", f"/graphs/{name}/query",
            {"nodes": [7], "min_version": token},
        )
        assert status == 200, body
        assert body["labels"] == [2]

    def test_health_names_dead_worker_then_recovers(self, graph_path, tmp_path):
        """Direct-object test with supervision disabled: health sees the
        corpse, recover() respawns exactly once per observed death."""
        router = Router(
            1, queue_dir=tmp_path / "q",
            spawn_timeout=120.0, supervise_interval=3600.0,
        )
        with router:
            handle = router.workers[0]
            generation = handle.generation
            os.kill(handle.pid, signal.SIGKILL)
            handle.process.wait(timeout=10.0)

            payload, ok = router.health()
            assert not ok
            assert any("worker 0 is down" in p for p in payload["problems"])

            assert router.recover(0, generation) is True
            assert router.recover(0, generation) is False  # stale observation
            payload, ok = router.health()
            assert ok, payload["problems"]


    def test_router_tallies_count_with_obs_disabled(self, graph_path, tmp_path):
        """proxied / recoveries / retries are router state, not metrics."""
        router = Router(
            1, queue_dir=tmp_path / "q",
            spawn_timeout=120.0, supervise_interval=3600.0,
        )
        previous = repro.obs.set_enabled(False)
        try:
            with router:
                status, _ = router.handle_load(
                    {"name": "t", "path": str(graph_path), "fraction": 0.1, "seed": 1}
                )
                assert status == 201
                handle = router.workers[0]
                os.kill(handle.pid, signal.SIGKILL)
                handle.process.wait(timeout=10.0)
                # Hits the corpse, recovers the worker, retries once.
                status, _ = router.forward(
                    "POST", "/graphs/t/query", "t", b'{"nodes": [1]}'
                )
                assert status == 200
                stats = router.stats()
        finally:
            repro.obs.set_enabled(previous)
        assert (stats["proxied"], stats["recoveries"], stats["retries"]) == (2, 1, 1)


# ----------------------------------------------------------- idempotency
class TestIdempotentRetries:
    def test_client_delta_id_dedupes_through_router(self, fleet, graph_path):
        _, base = fleet
        load_session(base, graph_path, "idem")
        delta = {"reveal": [[9, 0]], "ack": "applied", "id": "client-retry-1"}
        status, first = request(base, "POST", "/graphs/idem/delta", delta)
        assert status == 200
        status, second = request(base, "POST", "/graphs/idem/delta", delta)
        assert status == 200
        assert second["token"] == first["token"]
        assert second["graph_version"] == first["graph_version"]

    def test_router_stamps_ids_on_anonymous_deltas(self, fleet):
        router, _ = fleet
        body = router.stamp_delta_id(json.dumps({"reveal": [[1, 1]]}).encode())
        payload = json.loads(body.decode())
        assert payload["id"].startswith("router-")
        # Client-supplied ids pass through untouched.
        body = router.stamp_delta_id(
            json.dumps({"reveal": [[1, 1]], "id": "mine"}).encode()
        )
        assert json.loads(body.decode())["id"] == "mine"


# ------------------------------------------- read-your-writes (router tier)
class TestRouterReadYourWrites:
    def test_concurrent_writers_always_read_their_writes(self, fleet, graph_path):
        """Satellite: the interleaving test at the router tier — each
        thread acks a delta (eager or deferred) and immediately queries
        with its token; placement and proxying must never answer stale."""
        _, base = fleet
        sessions = [name_owned_by(i, prefix="ryw") for i in range(N_WORKERS)]
        for name in sessions:
            load_session(base, graph_path, name)
        failures: list[str] = []

        def writer(worker: int, lane: int) -> None:
            name = sessions[worker]
            for i in range(4):
                node = 10 + lane * 4 + i
                ack = "applied" if i % 2 else "propagated"
                status, body = request(
                    base, "POST", f"/graphs/{name}/delta",
                    {"reveal": [[node, node % 3]], "ack": ack},
                )
                if status != 200:
                    failures.append(f"delta {status}: {body}")
                    return
                status, body = request(
                    base, "POST", f"/graphs/{name}/query",
                    {"nodes": [node], "min_version": body["token"]},
                )
                if status != 200:
                    failures.append(f"query {status}: {body}")
                    return
                if body["labels"] != [node % 3]:
                    failures.append(f"stale read at node {node}: {body}")
                    return

        threads = [
            threading.Thread(target=writer, args=(worker, lane))
            for worker in range(N_WORKERS) for lane in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures, failures
        for name in sessions:
            status, body = request(base, "GET", f"/graphs/{name}")
            assert body["graph_version"] == 8


# ------------------------------------------------------------ fleet reads
class TestFleetReads:
    def test_fleet_listing_shape(self, fleet):
        router, base = fleet
        status, body = request(base, "GET", "/fleet")
        assert status == 200
        assert body["n_workers"] == N_WORKERS
        assert len(body["workers"]) == N_WORKERS
        for index, worker in enumerate(body["workers"]):
            assert worker["index"] == index
            assert worker["alive"] is True
            assert worker["metrics_url"].endswith("/metrics")
            assert isinstance(worker["pid"], int)

    def test_healthz_aggregates_workers(self, fleet):
        _, base = fleet
        status, body = request(base, "GET", "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["role"] == "router"
        assert len(body["workers"]) == N_WORKERS
        for worker in body["workers"]:
            assert worker["healthz"]["ok"] is True

    def test_metrics_federates_workers_and_router(self, fleet, graph_path):
        router, base = fleet
        load_session(base, graph_path, "metered")
        request(base, "POST", "/graphs/metered/query", {"nodes": [0]})
        req = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(req, timeout=30.0) as response:
            text = response.read().decode("utf-8")
        families = set(re.findall(r"^# TYPE (\S+)", text, re.M))
        assert "repro_router_proxied_total" in families
        assert "repro_serve_queries_total" in families
        instances = set(re.findall(r'instance="([^"]+)"', text))
        assert "router" in instances
        assert len(instances) >= 2  # router + at least one worker
        # The worker owning the session reports its query under its
        # authority, fetched as a JSON snapshot.
        owner = router.worker_for("metered")
        assert re.search(
            r'^repro_serve_queries_total\{[^}]*instance="%s:%d"' % (owner.host, owner.port),
            text, re.M,
        )

    def test_stats_aggregates_worker_stats(self, fleet):
        _, base = fleet
        status, body = request(base, "GET", "/stats")
        assert status == 200
        assert body["n_workers"] == N_WORKERS
        assert body["proxied"] > 0
        for worker in body["workers"]:
            assert worker["stats"] is not None
            assert "graphs" in worker["stats"]

    def test_quality_aggregates_across_workers(self, fleet, graph_path):
        router, base = fleet
        # One session per worker so the merge is exercised for real.
        names = [
            name_owned_by(index, prefix=f"quality{index}-")
            for index in range(N_WORKERS)
        ]
        for name in names:
            load_session(base, graph_path, name)
            # fraction=0.1 leaves ~90% of nodes unlabeled: revealing a
            # spread of nodes guarantees some prequentially scorable ones.
            reveal = [[node, node % 3] for node in range(0, 40, 4)]
            status, body = request(
                base, "POST", f"/graphs/{name}/delta", {"reveal": reveal},
            )
            assert status == 200, body

        status, body = request(base, "GET", "/quality")
        assert status == 200
        assert body["role"] == "router"
        assert set(names) <= set(body["graphs"])
        per_graph = sum(
            body["graphs"][name]["prequential"]["scored"] for name in names
        )
        assert per_graph > 0
        assert body["scored"] >= per_graph
        assert body["max_drift"] is not None
        scored_workers = [
            worker for worker in body["workers"] if worker["scored"] > 0
        ]
        assert len(scored_workers) == N_WORKERS

        # The per-graph view proxies through to the owning worker.
        status, one = request(base, "GET", f"/graphs/{names[0]}/quality")
        assert status == 200
        assert one["graph"] == names[0]
        assert one["prequential"]["scored"] > 0

        for name in names:  # leave the fleet as we found it
            request(base, "DELETE", f"/graphs/{name}")

    def test_404_for_unknown_route(self, fleet):
        _, base = fleet
        status, body = request(base, "GET", "/nonsense")
        assert status == 404


# ------------------------------------------------------- repro top --router
class TestTopRouter:
    def test_discover_fleet_returns_worker_metrics_urls(self, fleet):
        router, base = fleet
        endpoints = cli._discover_fleet(base, timeout=10.0)
        assert len(endpoints) == N_WORKERS
        assert sorted(endpoints) == sorted(
            handle.describe()["metrics_url"] for handle in router.workers
        )

    def test_top_once_json_over_router(self, fleet, capsys):
        _, base = fleet
        code = cli.main([
            "top", "--router", base, "--once", "--json", "--interval", "0.2",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["instances_up"] == N_WORKERS

    def test_top_requires_exactly_one_discovery_mode(self, fleet, capsys):
        _, base = fleet
        assert cli.main(["top"]) == 2
        assert cli.main(["top", ":1", "--router", base]) == 2

    def test_discover_fleet_unreachable_router(self):
        with pytest.raises(cli.CLIError):
            cli._discover_fleet("127.0.0.1:1", timeout=0.5)


# ----------------------------------------------------------------- errors
class TestSpawnFailures:
    def test_bad_worker_args_fail_the_health_gate(self, tmp_path):
        router = Router(
            1, queue_dir=tmp_path / "q",
            worker_args=["--definitely-not-a-flag"], spawn_timeout=30.0,
        )
        with pytest.raises(ServeError):
            router.start()
        router.close()


# ---------------------------------------------------------------- signals
def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSignals:
    def test_sigterm_to_the_router_stops_its_workers(self, tmp_path):
        port_file = tmp_path / "router.port"
        env = dict(os.environ)
        src = str(os.path.dirname(os.path.dirname(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        router = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--port", "0", "--port-file", str(port_file),
             "--queue-dir", str(tmp_path / "q")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        worker_pid = None
        try:
            deadline = time.monotonic() + 120.0
            while not (port_file.exists() and port_file.read_text().strip()):
                assert router.poll() is None, "router exited before binding"
                assert time.monotonic() < deadline, "router never bound"
                time.sleep(0.1)
            base = f"http://127.0.0.1:{int(port_file.read_text())}"
            _, body = request(base, "GET", "/fleet")
            worker_pid = body["workers"][0]["pid"]
            assert _alive(worker_pid)

            router.send_signal(signal.SIGTERM)
            router.wait(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while _alive(worker_pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _alive(worker_pid), "SIGTERM orphaned the worker"
        finally:
            if router.poll() is None:
                router.kill()
                router.wait(timeout=10.0)
            if worker_pid is not None and _alive(worker_pid):
                os.kill(worker_pid, signal.SIGKILL)

"""Stdlib-only JSON HTTP front-end for the inference service.

A :class:`ThreadingHTTPServer` (one thread per connection, no third-party
dependencies) exposing:

* ``POST /graphs`` — load a graph: ``{"name": ..., "path": "g.npz"}`` or
  ``{"name": ..., "store": "runs/grid", "hash": "ab12…"}`` plus optional
  ``propagator_kwargs`` (LinBP options, e.g. ``{"echo_cancellation":
  true}``) / ``method`` / ``fraction`` / ``seed`` / ``iterations`` /
  ``tolerance`` / ``localized`` / ``replace``;
* ``DELETE /graphs/<name>`` — unload it;
* ``GET /graphs/<name>`` — its info/staleness snapshot;
* ``GET /graphs/<name>/stats`` — per-mode solve counts (full /
  incremental / localized) plus cumulative touched-nonzeros;
* ``GET /graphs/<name>/quality`` — model-quality telemetry (prequential
  accuracy, belief churn, compatibility drift) and
  ``GET /quality`` — the same for every resident graph plus an
  instance-level rollup;
* ``POST /graphs/<name>/delta`` — apply a delta (the JSONL event-record
  format of :meth:`repro.stream.delta.GraphDelta.from_dict`);
* ``POST /graphs/<name>/query`` — ``{"nodes": [...], "top_k": 2}`` →
  beliefs/labels/top-k plus staleness metadata;
* ``GET /stats`` — service- and batcher-wide counters;
* ``GET /metrics`` — the :mod:`repro.obs` registries in Prometheus text
  exposition format (the service registry plus the process-global one);
* ``GET /healthz`` — *real* health, not a constant: per-graph session
  liveness (anchoring solve completed), batcher queue saturation, and the
  attached SLO rules — 200 while everything holds, 503 naming the
  problems while anything is degraded (so a load balancer drains exactly
  the workers that are actually in trouble);
* ``GET /alerts`` — every SLO rule's latest :class:`RuleStatus`
  (``repro serve --slo spec.json`` attaches the spec to a background
  :class:`~repro.obs.timeseries.TimeSeriesRecorder`).

Every response carries an ``X-Repro-Trace`` header with the request's trace
id; when tracing is configured (``repro serve --trace``), the request span
and everything it caused — batcher flushes, engine solves — share that id,
so one header value greps the whole request tree out of the trace file.
With ``log_json`` enabled the handler emits one JSON object per request to
stderr (method, path, status, duration_ms, trace).

Queries and deltas are routed through the :class:`MicroBatcher` (when one
is attached), so concurrent HTTP clients are coalesced exactly like
in-process callers.  Every response is a JSON object; failures carry
``{"error": ...}`` with the mapped status code, never a traceback page.

Worker and router share one response path, :class:`JsonHandler`: every
response leaves as a *single* write (status line, headers and body
together) on a ``TCP_NODELAY`` socket.  Do not split it again.  With Nagle
on, a body sent after its headers waits for the client's delayed ACK of
the headers — ~40 ms on Linux — so every keep-alive request cost a flat
~44 ms whatever its solve took.  NODELAY alone also cures it; the single
write additionally halves the syscalls, and NODELAY covers bodies larger
than one segment (``/metrics``, large queries).
"""

from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.serve.batcher import MicroBatcher
from repro.serve.service import InferenceService, ServeError

__all__ = ["InferenceHTTPServer", "JsonHandler", "ServeHandler", "make_server"]

MAX_BODY_BYTES = 64 * 1024 * 1024  # a delta with millions of edges is a bug


class InferenceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service + batcher for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    # Queue saturation past this fraction degrades /healthz: submits are
    # about to be rejected, a balancer should stop sending work here.
    queue_degraded_fraction = 0.9

    def __init__(
        self,
        address: tuple[str, int],
        service: InferenceService,
        batcher: MicroBatcher | None = None,
        log_json: bool = False,
        recorder=None,
    ) -> None:
        super().__init__(address, ServeHandler)
        self.service = service
        self.batcher = batcher
        self.log_json = log_json
        # A TimeSeriesRecorder (usually with an SloSpec attached) backing
        # /healthz degradation and /alerts; owned by whoever built it.
        self.recorder = recorder

    def close(self) -> None:
        """Shut down the listener, the batcher, and the SLO recorder."""
        self.shutdown()
        self.server_close()
        if self.batcher is not None:
            self.batcher.close()
        if self.recorder is not None:
            self.recorder.stop()

    def health(self) -> tuple[dict, bool]:
        """``(payload, ok)`` composing every degradation signal."""
        problems: list[str] = []
        graphs = self.service.health()
        for name, state in sorted(graphs.items()):
            if not state["live"]:
                problems.append(f"graph {name!r} has no belief snapshot yet")
        payload: dict = {"graphs": graphs}
        if self.batcher is not None:
            queue = self.batcher.saturation()
            payload["batcher"] = queue
            if queue["saturation"] >= self.queue_degraded_fraction:
                problems.append(
                    f"batcher queue saturated "
                    f"({queue['queue_depth']}/{queue['max_queue']})"
                )
        if self.recorder is not None:
            firing = self.recorder.firing()
            payload["slo"] = {
                "rules": len(self.recorder.statuses()),
                "firing": [status.name for status in firing],
            }
            for status in firing:
                problems.append(f"SLO {status.name}: {status.detail}")
        payload["problems"] = problems
        payload["ok"] = not problems
        return payload, not problems


class JsonHandler(BaseHTTPRequestHandler):
    """The JSON request/response path shared by the worker and the router.

    Subclasses implement ``_dispatch(method) -> bool`` (False: no route).
    A response carries ``X-Repro-Trace`` whenever ``_trace_id`` is set.
    """

    protocol_version = "HTTP/1.1"
    # See the module docstring: responses are one write on a NODELAY socket.
    disable_nagle_algorithm = True
    # Quiet by default: one line per request at 10k qps would *be* the load.
    verbose = False
    _trace_id: str | None = None

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ I/O
    def _send_body(self, body: bytes, content_type: str, status: int) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header("X-Repro-Trace", self._trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would write the headers on their own; the body
        # joins them in the buffer so the response is one write.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(body, "application/json", status)

    def _send_error_json(self, message: str, status: int) -> None:
        # Error paths may not have consumed the request body (unmatched
        # route, too-large guard); leftover bytes would desynchronize a
        # kept-alive HTTP/1.1 connection — the next "request" would be
        # parsed out of the old body.  Dropping the connection after an
        # error keeps the stream unambiguous.
        self.close_connection = True
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise ServeError(f"invalid Content-Length header: {exc}") from exc
        if length < 0:
            raise ServeError(f"invalid Content-Length header: {length}")
        if length > MAX_BODY_BYTES:
            raise ServeError(f"request body too large ({length} bytes)", status=413)
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> dict:
        raw = self._read_body()
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    # -------------------------------------------------------------- routing
    def _route(self, method: str) -> None:
        try:
            handled = self._dispatch(method)
        except ServeError as exc:
            self._send_error_json(str(exc), exc.status)
            return
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            return
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_error_json(f"internal error: {exc}", 500)
            return
        if not handled:
            self._send_error_json(f"no route for {method} {self.path}", 404)

    def _dispatch(self, method: str) -> bool:
        raise NotImplementedError

    # ----------------------------------------------------------- verb hooks
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")


class ServeHandler(JsonHandler):
    """Routes the worker endpoints; all payloads are JSON."""

    server: InferenceHTTPServer

    def _route(self, method: str) -> None:
        self._trace_id = obs.new_trace_id()
        self._status = 0
        start = time.perf_counter()
        path = self.path.split("?")[0]
        try:
            with obs.span(
                "http.request", trace_id=self._trace_id, method=method, path=path
            ):
                super()._route(method)
        finally:
            self._record_request(method, path, time.perf_counter() - start)

    def _record_request(self, method: str, path: str, seconds: float) -> None:
        status = self._status or 500
        if obs.enabled():
            registry = self.server.service.registry
            registry.counter(
                "repro_http_requests_total",
                "HTTP requests served, by method and status code.",
                method=method, status=status,
            ).inc()
            registry.histogram(
                "repro_http_request_seconds",
                "End-to-end HTTP request handling time.",
                method=method,
            ).observe(seconds)
        if self.server.log_json:
            line = json.dumps({
                "method": method,
                "path": path,
                "status": status,
                "duration_ms": round(seconds * 1000.0, 3),
                "trace": self._trace_id,
            }, separators=(",", ":"))
            print(line, file=sys.stderr, flush=True)

    def _dispatch(self, method: str) -> bool:
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        service = self.server.service
        if method == "GET":
            if parts == ["healthz"]:
                payload, ok = self.server.health()
                self._send_json(payload, status=200 if ok else 503)
                return True
            if parts == ["alerts"]:
                recorder = self.server.recorder
                if recorder is None:
                    self._send_json({"enabled": False, "alerts": []})
                    return True
                statuses = recorder.statuses()
                self._send_json({
                    "enabled": True,
                    "firing": [s.name for s in statuses if s.firing],
                    "alerts": [s.to_dict() for s in statuses],
                })
                return True
            if parts == ["stats"]:
                stats = service.stats()
                if self.server.batcher is not None:
                    stats["batcher"] = self.server.batcher.stats()
                self._send_json(stats)
                return True
            if parts == ["metrics"]:
                registries = [service.registry]
                if obs.metrics() is not service.registry:
                    registries.append(obs.metrics())
                self._send_body(
                    obs.render_prometheus(registries).encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8", 200,
                )
                return True
            if len(parts) == 2 and parts[0] == "graphs":
                self._send_json(service.info(parts[1]))
                return True
            if parts == ["quality"]:
                self._send_json(service.quality())
                return True
            if len(parts) == 3 and parts[0] == "graphs" and parts[2] == "stats":
                self._send_json(service.graph_stats(parts[1]))
                return True
            if len(parts) == 3 and parts[0] == "graphs" and parts[2] == "quality":
                self._send_json(service.graph_quality(parts[1]))
                return True
            return False
        if method == "DELETE":
            if len(parts) == 2 and parts[0] == "graphs":
                self._send_json({"unloaded": service.unload(parts[1])})
                return True
            return False
        if method != "POST":
            return False
        if parts == ["graphs"]:
            self._handle_load(self._read_json())
            return True
        if len(parts) == 3 and parts[0] == "graphs":
            name, verb = parts[1], parts[2]
            if verb == "delta":
                self._handle_delta(name, self._read_json())
                return True
            if verb == "query":
                self._handle_query(name, self._read_json())
                return True
        return False

    # ------------------------------------------------------------- handlers
    def _handle_load(self, payload: dict) -> None:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServeError("load needs a non-empty 'name'")
        allowed = {
            "name", "path", "store", "hash", "propagator_kwargs",
            "method", "method_kwargs", "fraction", "seed", "iterations",
            "tolerance", "localized", "replace", "recover",
        }
        unknown = set(payload) - allowed
        if unknown:
            raise ServeError(f"unknown load fields: {sorted(unknown)}")
        try:
            fraction = float(payload.get("fraction", 0.05))
            seed = int(payload.get("seed", 0))
            iterations = int(payload.get("iterations", 300))
            tolerance = float(payload.get("tolerance", 1e-8))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"invalid load parameter: {exc}") from exc
        info = self.server.service.load_graph(
            name,
            path=payload.get("path"),
            store=payload.get("store"),
            run_hash=payload.get("hash"),
            propagator_kwargs=payload.get("propagator_kwargs"),
            method=payload.get("method", "GS"),
            method_kwargs=payload.get("method_kwargs"),
            fraction=fraction,
            seed=seed,
            iterations=iterations,
            tolerance=tolerance,
            localized=bool(payload.get("localized", False)),
            replace=bool(payload.get("replace", False)),
            recover=bool(payload.get("recover", False)),
        )
        self._send_json({"loaded": info}, status=201)

    def _handle_delta(self, name: str, payload: dict) -> None:
        # Transport fields ride next to the delta record and are stripped
        # before GraphDelta.from_dict sees the payload: "ack" selects the
        # acknowledgement mode ("propagated" default, "applied" = ack as
        # soon as durable+applied), "id" is the client's idempotency key.
        ack = payload.pop("ack", "propagated")
        if ack not in ("propagated", "applied"):
            raise ServeError(
                f"ack must be 'propagated' or 'applied', got {ack!r}"
            )
        delta_id = payload.pop("id", None)
        if delta_id is not None:
            delta_id = str(delta_id)
        batcher = self.server.batcher
        if batcher is not None:
            outcome = batcher.apply_delta(
                name, payload, ack=ack, delta_id=delta_id
            )
        else:
            from repro.stream.delta import GraphDelta

            try:
                delta = GraphDelta.from_dict(payload)
            except (TypeError, ValueError) as exc:
                raise ServeError(f"invalid delta: {exc}") from exc
            outcome = self.server.service.apply_delta(
                name, delta, propagate=(ack == "propagated"),
                delta_id=delta_id,
            )
        self._send_json(outcome.to_dict())

    def _handle_query(self, name: str, payload: dict) -> None:
        unknown = set(payload) - {"nodes", "top_k", "min_version"}
        if unknown:
            raise ServeError(f"unknown query fields: {sorted(unknown)}")
        nodes = payload.get("nodes")
        top_k = payload.get("top_k")
        min_version = payload.get("min_version")
        batcher = self.server.batcher
        if batcher is not None:
            result = batcher.query(name, nodes, top_k, min_version)
        else:
            result = self.server.service.query(name, nodes, top_k, min_version)
        self._send_json(result.to_dict())


def make_server(
    service: InferenceService,
    host: str = "127.0.0.1",
    port: int = 8151,
    batcher: MicroBatcher | None = None,
    log_json: bool = False,
    recorder=None,
) -> InferenceHTTPServer:
    """Bind the serving endpoint (``port=0`` picks a free port for tests)."""
    return InferenceHTTPServer(
        (host, port), service, batcher, log_json=log_json, recorder=recorder
    )

"""Served workload: two keep-alive clients against ``repro serve --workers 1``.

The fleet (router plus one worker) runs as its own process group, which is
killed on every way out of a run.  The load comes from this process: two
threads, each on one keep-alive connection.  Every 10th request on a
connection is a single-edge delta acknowledged once applied, and the next
query on that connection carries its token as ``min_version``; the first
query to arrive after a delta pays for the deferred propagation.  Queries
ask for 32 nodes from a pool of 256 node sets with Zipf(1.1) popularity.

The end-to-end latency comes from a closed loop, each client sending its
next request when the last one is answered.  An open loop on keep-alive
connections is bimodal: a request sent soon after the previous answer
on its connection takes ~44 ms, one sent 100 ms later ~2 ms, so the stalled
share follows the arrival draw.  Over five seeds the open-loop median at
20 requests/s spread by 0.27 and the 95th percentile by 0.49, wider than
any bound the benchmark may set.
The traced run measures the open-loop ladder (seeded Poisson arrivals, each
request timed from when it was due and shed if still unsent ``SHED_AFTER``
seconds after its phase) on an untraced fleet, then the closed loop through
the router and straight to the worker on a fleet started with
``REPRO_TRACE``: each direct request's ``X-Repro-Trace`` header names its
``http.request`` span, which splits the request into wire, handler and
batcher-flush time.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from measure import Context, Result, percentile, peak_rss_mib, repeat_setup
from repro import macro_accuracy
from repro.graph.io import load_graph_npz

HOST = "127.0.0.1"
GRAPH = "bench"
RUNGS = (20, 100, 400)  # open-loop requests per second, one decade apart
CONNECTIONS = 2
# One slow query per delta: 1 in 10 puts the 95th percentile inside the
# slow queries rather than on their edge, where it would jump between them.
DELTA_EVERY = 10
NODES_PER_QUERY = 32
POOL = 256
ZIPF_EXPONENT = 1.1
SLO_SECONDS = 0.25  # the p99-latency rule of examples/specs/serve_slo.json
SHED_AFTER = 2.0
WARMUP_REQUESTS = 20
ACCURACY_CHUNK = 8192
SPAWN_TIMEOUT = 120.0
ITERATIONS = 300
TOLERANCE = 1e-7


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection(HOST, port, timeout=60)

    def call(self, method: str, path: str, payload: dict | None = None):
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self.conn.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next call dials a fresh connection
            raise
        reply = json.loads(data) if data else {}
        return response.status, reply, response.getheader("X-Repro-Trace")

    def close(self) -> None:
        self.conn.close()


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` still runs (zombies do not)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Fleet:
    """One ``repro serve --workers 1`` process group: the router and its worker."""

    def __init__(self, ctx: Context, name: str, trace_file: Path | None = None) -> None:
        self.dir = ctx.work / name
        self.dir.mkdir()
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(ctx.src), TMPDIR=str(self.dir))
        if trace_file is not None:
            env["REPRO_TRACE"] = str(trace_file)
        port_file = self.dir / "router.port"
        self.log_path = self.dir / "router.log"
        self.log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--host", HOST, "--port", "0", "--port-file", str(port_file),
             "--queue-dir", str(self.dir / "queues")],
            env=env, stdout=self.log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            self.port = self._await_healthy(port_file)
        except BaseException:
            self.close()
            raise

    def _await_healthy(self, port_file: Path) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                output = self.log_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"repro serve exited with {self.process.returncode}:\n{output}")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                client = Client(int(text))
                try:
                    if client.call("GET", "/healthz")[0] == 200:
                        return int(text)
                except (OSError, http.client.HTTPException):
                    pass
                finally:
                    client.close()
            time.sleep(0.02)
        raise RuntimeError(f"repro serve not healthy within {SPAWN_TIMEOUT:g}s")

    def load(self, ctx: Context) -> None:
        client = Client(self.port)
        try:
            status, reply, _ = client.call("POST", "/graphs", {
                "name": GRAPH, "path": str(ctx.inputs / "graph.npz"), "method": "DCEr",
                "fraction": ctx.spec.fraction, "seed": ctx.seed,
                "iterations": ITERATIONS, "tolerance": TOLERANCE,
            })
        finally:
            client.close()
        if status != 201:
            raise RuntimeError(f"load failed with {status}: {reply}")

    def worker(self) -> dict:
        client = Client(self.port)
        try:
            return client.call("GET", "/fleet")[1]["workers"][0]
        finally:
            client.close()

    def close(self) -> None:
        """Kill the whole group and wait until none of it runs; idempotent."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10.0
        while _group_alive(self.process.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        self.log.close()


@dataclass
class Outcome:
    kind: str  # "query" or "delta"
    due: float
    sent: float | None = None  # None: shed
    done: float = 0.0
    status: int = 0  # 0: the connection failed
    fence: int | None = None  # min_version the query carried
    version: int | None = None  # graph_version a query was answered at
    token: int | None = None  # read-your-writes token a delta returned
    cached: bool = False
    trace: str | None = None


class Traffic:
    """The seeded requests: Zipf-popular query node sets, fresh edges for deltas."""

    def __init__(self, ctx: Context) -> None:
        rng = np.random.default_rng([ctx.seed, 3])
        self.pool = [
            rng.integers(0, ctx.spec.nodes, NODES_PER_QUERY).tolist() for _ in range(POOL)
        ]
        weights = np.arange(1, POOL + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.weights = weights / weights.sum()
        fresh = np.load(ctx.inputs / "fresh.npy").tolist()
        self.edges = [iter(fresh[c::CONNECTIONS]) for c in range(CONNECTIONS)]
        self.seed = ctx.seed
        self.phases = count()

    def streams(self, rate: float | None) -> list:
        """One endless request stream per connection: ``(offset, kind, body)``.

        ``offset`` is the due time in seconds from the phase start, drawn as
        Poisson arrivals at ``rate`` in total; a closed loop (``rate=None``)
        ignores it.
        """
        phase = next(self.phases)
        return [
            self._stream(np.random.default_rng([self.seed, 4, phase, c]), self.edges[c], rate)
            for c in range(CONNECTIONS)
        ]

    def _stream(self, rng, edges, rate):
        offset = 0.0
        for index in count(1):
            if rate is not None:
                offset += rng.exponential(CONNECTIONS / rate)
            if index % DELTA_EVERY == 0:
                yield offset, "delta", {"add_edges": [next(edges)], "ack": "applied"}
            else:
                nodes = self.pool[rng.choice(POOL, p=self.weights)]
                yield offset, "query", {"nodes": nodes, "top_k": 1}

    def warmup(self) -> list:
        return [
            iter([(0.0, "query", {"nodes": self.pool[i], "top_k": 1})
                  for i in range(c, WARMUP_REQUESTS, CONNECTIONS)])
            for c in range(CONNECTIONS)
        ]


@dataclass
class Phase:
    outcomes: list[Outcome]
    wall: tuple[float, float]  # time.time() at start and end, for matching spans

    def sent(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.sent is not None]

    def answered(self, kind: str) -> list[Outcome]:
        return [o for o in self.sent() if o.kind == kind and 200 <= o.status < 300]

    @property
    def errors(self) -> int:
        return sum(not 200 <= o.status < 300 for o in self.sent())

    @property
    def fence_violations(self) -> int:
        return sum(
            o.version is None or o.version < o.fence
            for o in self.answered("query") if o.fence is not None
        )

    def latency_ms(self, kind: str = "query", since: str = "due") -> list[float]:
        return [(o.done - getattr(o, since)) * 1e3 for o in self.answered(kind)]

    def within_slo(self) -> float:
        """Share of due queries answered within the SLO; shed or failed ones miss it."""
        due = [o for o in self.outcomes if o.kind == "query"]
        met = sum(o.done - o.due <= SLO_SECONDS for o in self.answered("query"))
        return met / len(due) if due else 1.0

    def late_frac(self) -> float:
        """Share of due requests the generator sent more than the SLO late, or shed."""
        late = sum(o.sent is None or o.sent - o.due > SLO_SECONDS for o in self.outcomes)
        return late / len(self.outcomes) if self.outcomes else 0.0


def run_phase(clients: list[Client], streams: list, duration: float, closed: bool) -> Phase:
    """Drive each connection's stream from its own thread for ``duration`` seconds.

    A closed loop sends each request as soon as the previous one is answered;
    an open loop sends it when due, and sheds it once ``SHED_AFTER`` seconds
    past the phase have gone by.
    """
    sinks: list[list[Outcome]] = [[] for _ in clients]
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.01
    end = start + duration

    def drive(client: Client, stream, sink: list[Outcome]) -> None:
        try:
            fence = None
            for offset, kind, body in stream:
                now = time.perf_counter()
                due = max(now, start) if closed else start + offset
                if due >= end:
                    break
                if due > now:
                    time.sleep(due - now)
                outcome = Outcome(kind, due)
                sink.append(outcome)
                if time.perf_counter() > end + SHED_AFTER:
                    continue
                if kind == "query" and fence is not None:
                    body, outcome.fence, fence = dict(body, min_version=fence), fence, None
                outcome.sent = time.perf_counter()
                try:
                    outcome.status, reply, outcome.trace = client.call(
                        "POST", f"/graphs/{GRAPH}/{kind}", body
                    )
                except (OSError, http.client.HTTPException, ValueError):
                    reply = {}
                outcome.done = time.perf_counter()
                if kind == "delta":
                    outcome.token = fence = reply.get("token")
                else:
                    outcome.version = reply.get("graph_version")
                    outcome.cached = bool(reply.get("cached"))
        except Exception as exc:  # surfaced in the caller's thread
            errors.append(exc)

    wall_start = time.time()
    threads = [
        threading.Thread(target=drive, args=args, daemon=True)
        for args in zip(clients, streams, sinks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + SHED_AFTER + 120.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load thread did not finish")
    if errors:
        raise errors[0]
    return Phase([o for sink in sinks for o in sink], (wall_start, time.time()))


def start_fleet(ctx: Context, stack: ExitStack, traffic: Traffic, name: str, trace_file=None):
    """Spawn, load and warm a fleet; returns it with the load generator's clients."""
    fleet = Fleet(ctx, name, trace_file)
    stack.callback(fleet.close)
    fleet.load(ctx)
    clients = [Client(fleet.port) for _ in range(CONNECTIONS)]
    for client in clients:
        stack.callback(client.close)
    warm = run_phase(clients, traffic.warmup(), SPAWN_TIMEOUT, closed=True)
    if warm.errors:
        raise RuntimeError(f"{warm.errors} warm-up requests failed")
    return fleet, clients


def served_accuracy(client: Client, ctx: Context) -> tuple[float, int]:
    """Macro accuracy of the served labels on unlabelled nodes; and failed requests."""
    truth = load_graph_npz(ctx.inputs / "graph.npz").labels
    nodes = np.flatnonzero(np.load(ctx.inputs / "seeds.npy") < 0)
    labels, failed = [], 0
    for start in range(0, nodes.shape[0], ACCURACY_CHUNK):
        chunk = nodes[start:start + ACCURACY_CHUNK].tolist()
        status, reply, _ = client.call("POST", f"/graphs/{GRAPH}/query", {"nodes": chunk})
        if status != 200:
            failed += 1
            reply = {"labels": [-1] * len(chunk)}
        labels.extend(reply["labels"])
    return macro_accuracy(truth[nodes], np.asarray(labels), ctx.spec.classes), failed


def _summarize(out: Result, phases: list[Phase]) -> None:
    errors = sum(phase.errors for phase in phases)
    violations = sum(phase.fence_violations for phase in phases)
    fenced = sum(o.fence is not None for phase in phases for o in phase.answered("query"))
    out.attempted += sum(len(phase.sent()) for phase in phases)
    out.failed += errors + violations
    out.check("no_error_responses", errors == 0, f"{errors} non-2xx or failed requests")
    out.check("fenced_reads_see_their_writes", violations == 0,
              f"{violations} of {fenced} fenced queries stale")


def run(ctx: Context) -> Result:
    out = Result(metrics={}, attempted=0)
    traffic = Traffic(ctx)
    names = (f"fleet{i}" for i in count())
    with ExitStack() as stack:
        if not ctx.traced:
            setup_s, (fleet, clients) = repeat_setup(
                lambda: start_fleet(ctx, stack, traffic, next(names)),
                ctx.setups,
                lambda state: state[0].close(),
            )
            # Read right after set-up, so the answer does not depend on how
            # many deltas the measured loop gets through.
            accuracy, failed = served_accuracy(clients[0], ctx)
            out.attempted += 1
            out.failed += failed
            loop = run_phase(clients, traffic.streams(None), ctx.seconds, closed=True)
            rss = peak_rss_mib(fleet.worker()["pid"])
            _summarize(out, [loop])
            latencies = loop.latency_ms()
            out.notes.append(f"{len(latencies)} queries and {len(loop.answered('delta'))} "
                             f"deltas in a closed loop of {CONNECTIONS} connections")
            out.metrics.update(
                setup_s=setup_s,
                latency_ms_p50=percentile(latencies, 50),
                accuracy=accuracy,
                peak_rss_mib=rss,
            )
            return out

        fleet, clients = start_fleet(ctx, stack, traffic, next(names))
        loop = run_phase(clients, traffic.streams(None), 0.2 * ctx.seconds, closed=True)
        rungs = {
            rate: run_phase(clients, traffic.streams(rate), share * ctx.seconds, closed=False)
            for rate, share in zip(RUNGS, (0.2, 0.15, 0.15))
        }
        fleet.close()

        trace_file = ctx.work / "trace.jsonl"
        fleet, clients = start_fleet(ctx, stack, traffic, next(names), trace_file)
        routed = run_phase(clients, traffic.streams(None), 0.15 * ctx.seconds, closed=True)
        for client in clients:
            client.close()
        worker_port = int(fleet.worker()["url"].rsplit(":", 1)[1])
        clients = [Client(worker_port) for _ in range(CONNECTIONS)]
        for client in clients:
            stack.callback(client.close)
        direct = run_phase(clients, traffic.streams(None), 0.15 * ctx.seconds, closed=True)
        fleet.close()

    _summarize(out, [loop, *rungs.values(), routed, direct])
    spans = [json.loads(line) for line in trace_file.read_text().splitlines() if line.strip()]
    out.metrics.update(_layers(loop, rungs, routed, direct, spans))
    out.notes.append(", ".join(
        f"{len(phase.answered('query'))} queries at {rate}/s" for rate, phase in rungs.items()
    ))
    return out


def covered_ms(parent: dict, children: list[dict]) -> float:
    """Milliseconds of a span's interval that its child spans cover, overlaps once."""
    start = parent["ts"]
    end = start + parent["duration_ms"] / 1e3
    cursor, total = start, 0.0
    for low, high in sorted(
        (max(start, child["ts"]), min(end, child["ts"] + child["duration_ms"] / 1e3))
        for child in children
    ):
        low = max(low, cursor)
        if high > low:
            total += high - low
            cursor = high
    return total * 1e3


def _layers(loop: Phase, rungs: dict, routed: Phase, direct: Phase, spans: list[dict]) -> dict:
    requests = {span["trace"]: span for span in spans if span["name"] == "http.request"}
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span.get("parent"):
            children.setdefault(span["parent"], []).append(span)
    matched = [
        (o, requests[o.trace])
        for kind in ("query", "delta") for o in direct.answered(kind) if o.trace in requests
    ]
    total = sum((o.done - o.sent) * 1e3 for o, _ in matched)
    handled = sum(span["duration_ms"] for _, span in matched)
    handler = sum(
        span["duration_ms"] - covered_ms(span, children.get(span["span"], []))
        for _, span in matched
    )

    def flush(kind: str) -> float:
        return sum(
            child["duration_ms"]
            for _, span in matched for child in children.get(span["span"], [])
            if child["name"] == f"batcher.flush_{kind}"
        )

    low, high = direct.wall
    solves = [s for s in spans if s["name"] == "engine.solve" and low <= s["ts"] <= high]
    queries = loop.answered("query")
    traced_p50 = statistics.median(routed.latency_ms())
    layers = {
        "traced_latency_ms_p50": traced_p50,
        "latency_ms_p95": percentile(loop.latency_ms(), 95),
        "trace_overhead": traced_p50 / statistics.median(loop.latency_ms()) - 1.0,
        "coverage": handled / total,
        "serve.router_share": 1.0 - statistics.median(direct.latency_ms()) / traced_p50,
        "serve.wire_share": (total - handled) / total,
        "serve.handler_share": handler / total,
        "serve.flush_query_share": flush("query") / total,
        "serve.flush_delta_share": flush("delta") / total,
        "serve.propagate_share": sum(s["duration_ms"] for s in solves) / total,
        "serve.propagations_per_delta": len(solves) / max(1, len(direct.answered("delta"))),
        "serve.cache_hit_ratio": sum(o.cached for o in queries) / len(queries),
    }
    passing = [0]
    for rate, phase in rungs.items():
        layers[f"serve.within_slo.r{rate}"] = phase.within_slo()
        layers[f"serve.late_frac.r{rate}"] = phase.late_frac()
        if (phase.within_slo() >= 0.99 and phase.late_frac() <= 0.01
                and phase.errors <= 0.01 * len(phase.sent())):
            passing.append(rate)
    layers["serve.max_rate_rps"] = float(max(passing))
    return layers

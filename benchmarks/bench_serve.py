"""Micro-benchmark: micro-batched serving vs. one-request-per-call.

A closed-loop load generator drives the :class:`~repro.serve.InferenceService`
with N concurrent client threads.  Each client loops: ``queries_per_delta``
belief queries (random node sets, top-k ranking), then one single-edge
:class:`~repro.stream.delta.GraphDelta`.  The same workload runs twice:

* **unbatched** — every client calls ``service.query`` /
  ``service.apply_delta`` directly: one lock round-trip per query and one
  full incremental propagation per delta (the one-request-per-call path);
* **batched** — every client goes through the :class:`~repro.serve.MicroBatcher`:
  concurrent queries coalesce into one vectorized belief gather, concurrent
  deltas into a *single* propagation per flush.

Reported per mode: queries/sec, query latency p50/p99, delta count and how
many propagations actually ran.  The batched/unbatched queries-per-second
ratio is the headline number (target: >= 3x at 8 clients).

A separate correctness phase applies a label-reveal delta mid-load and
checks the next query reflects it: the belief row changes, the belief
version advances, and the staleness counter (queries answered since the
last refresh) resets to zero.

With ``--workers 1 2 4 8`` a third phase sweeps the **horizontal tier**:
for each pool size it spawns that many real worker processes (via
:class:`repro.serve.router.Router`), loads the same balanced set of
sessions (names chosen so placement spreads them evenly at the largest
pool size — the divisor-chain property keeps them balanced at every
smaller size too), and drives a placement-aware HTTP load: each client
computes ``place(session, n)`` itself and talks straight to the owning
worker, so the sweep measures worker parallelism, not proxy overhead.
Deltas use deferred acks (``ack="applied"``) and the next query carries
the returned token as ``min_version`` — the read-your-writes path is what
gets benchmarked.  The scale-free ``speedup_N_workers`` ratios (pool-of-N
qps over pool-of-1 qps) are what the CI gate checks; absolute qps and the
recorded ``host_cpus`` say how much hardware the numbers had to work with
(a 1-CPU container cannot show a 4x pool speedup; a 4-vCPU CI runner can).

Writes ``BENCH_serve.json`` next to the repository root (or ``--output``).

Usage
-----
    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --clients 8 --duration 4
    PYTHONPATH=src python benchmarks/bench_serve.py --nodes 20000 --edges 60000
    PYTHONPATH=src python benchmarks/bench_serve.py --workers 1 2 4 8
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.io import save_graph_npz
from repro.serve import InferenceService, MicroBatcher
from repro.stream import GraphDelta
from repro.utils.placement import place

GRAPH_NAME = "bench"


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1e3) if latencies else 0.0


def run_load(
    frontend,
    service: InferenceService,
    n_clients: int,
    duration: float,
    queries_per_delta: int,
    nodes_per_query: int,
    n_nodes: int,
    seed: int,
) -> dict:
    """Drive one closed-loop load phase; returns its measurement record.

    ``frontend`` is the object the clients call (the service itself for the
    unbatched mode, the micro-batcher for the batched one) — both expose
    ``query(name, nodes, top_k)`` and ``apply_delta(name, delta)``.
    """
    before = service.info(GRAPH_NAME)
    barrier = threading.Barrier(n_clients + 1)
    # Set before the main thread reaches the barrier: clients are all
    # blocked in barrier.wait() until then, so every one of them reads the
    # final value and times (almost exactly) the same window.
    stop_at = [0.0]
    query_latencies: list[list[float]] = [[] for _ in range(n_clients)]
    delta_latencies: list[list[float]] = [[] for _ in range(n_clients)]
    errors: list[str] = []

    def client(index: int) -> None:
        rng = np.random.default_rng(seed + index)
        mine_q = query_latencies[index]
        mine_d = delta_latencies[index]
        barrier.wait()
        step = 0
        try:
            while time.perf_counter() < stop_at[0]:
                step += 1
                if step % queries_per_delta == 0:
                    u = int(rng.integers(0, n_nodes - 1))
                    v = int(rng.integers(u + 1, n_nodes))
                    delta = GraphDelta(add_edges=[[u, v]])
                    start = time.perf_counter()
                    frontend.apply_delta(GRAPH_NAME, delta)
                    mine_d.append(time.perf_counter() - start)
                else:
                    nodes = rng.integers(0, n_nodes, size=nodes_per_query)
                    start = time.perf_counter()
                    frontend.query(GRAPH_NAME, nodes, 1)
                    mine_q.append(time.perf_counter() - start)
        except Exception as exc:  # pragma: no cover - surfaced in the record
            errors.append(f"client {index}: {exc!r}")

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    stop_at[0] = time.perf_counter() + duration
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    after = service.info(GRAPH_NAME)
    all_queries = [lat for client_lats in query_latencies for lat in client_lats]
    all_deltas = [lat for client_lats in delta_latencies for lat in client_lats]
    return {
        "n_clients": n_clients,
        "elapsed_seconds": elapsed,
        "n_queries": len(all_queries),
        "n_deltas": len(all_deltas),
        "queries_per_second": len(all_queries) / elapsed if elapsed else 0.0,
        "query_p50_ms": percentile_ms(all_queries, 50),
        "query_p99_ms": percentile_ms(all_queries, 99),
        "delta_p50_ms": percentile_ms(all_deltas, 50),
        "delta_p99_ms": percentile_ms(all_deltas, 99),
        "n_propagations": after["n_solves"] - before["n_solves"],
        "errors": errors,
    }


def check_delta_mid_load(frontend, service: InferenceService, graph) -> dict:
    """Apply a reveal delta between queries; assert it shows up immediately."""
    labels = graph.require_labels()
    session = service._served(GRAPH_NAME).session
    hidden = np.flatnonzero(session.seed_labels < 0)
    probe = int(hidden[0])

    warmup = [frontend.query(GRAPH_NAME, [probe], None) for _ in range(3)]
    before = warmup[-1]
    outcome = frontend.apply_delta(
        GRAPH_NAME, GraphDelta(reveal_nodes=[probe], reveal_labels=[labels[probe]])
    )
    after = frontend.query(GRAPH_NAME, [probe], None)
    belief_change = float(np.abs(np.asarray(after.beliefs) - np.asarray(before.beliefs)).max())
    return {
        "probe_node": probe,
        "belief_version_before": before.belief_version,
        "belief_version_after": after.belief_version,
        "queries_since_refresh_before": before.staleness["queries_since_refresh"],
        "queries_since_refresh_after": after.staleness["queries_since_refresh"],
        "belief_change": belief_change,
        "reflected": bool(
            after.belief_version > before.belief_version and belief_change > 1e-12
        ),
        "staleness_reset": bool(
            after.staleness["queries_since_refresh"]
            < before.staleness["queries_since_refresh"] + 3
            and after.staleness["queries_since_refresh"] <= 1
        ),
    }


def balanced_session_names(n: int) -> list[str]:
    """``n`` session names whose placements cover workers ``0..n-1``.

    Because placement is ``hash % n`` and the candidates are scanned in a
    fixed order, the result is deterministic; the divisor-chain property
    keeps the same names evenly spread at every pool size dividing ``n``.
    """
    by_worker: dict[int, str] = {}
    attempt = 0
    while len(by_worker) < n:
        name = f"shard{attempt}"
        by_worker.setdefault(place(name, n), name)
        attempt += 1
    return [by_worker[index] for index in range(n)]


class WorkerClient:
    """Keep-alive HTTP client pinned to one worker (one per load thread)."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post(self, path: str, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        for attempt in (1, 2):
            try:
                self.conn.request("POST", path, body=body,
                                  headers={"Content-Type": "application/json"})
                response = self.conn.getresponse()
                data = response.read()
                if response.status != 200:
                    raise RuntimeError(
                        f"{path} -> {response.status}: {data[:200]!r}")
                return json.loads(data.decode("utf-8"))
            except (http.client.HTTPException, OSError):
                self.conn.close()
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
                if attempt == 2:
                    raise


def run_worker_pool(
    router, sessions: list[str], n_clients: int, duration: float,
    queries_per_delta: int, nodes_per_query: int, n_nodes: int, seed: int,
) -> dict:
    """One closed-loop phase against a live pool, placement-aware clients."""
    n_workers = router.n_workers
    barrier = threading.Barrier(n_clients + 1)
    stop_at = [0.0]
    counts = [0] * n_clients
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    errors: list[str] = []

    def client(index: int) -> None:
        session = sessions[index % len(sessions)]
        handle = router.workers[place(session, n_workers)]
        rng = np.random.default_rng(seed + index)
        wire = WorkerClient(handle.host, handle.port)
        mine = latencies[index]
        token = None
        barrier.wait()
        step = 0
        try:
            while time.perf_counter() < stop_at[0]:
                step += 1
                if step % queries_per_delta == 0:
                    u = int(rng.integers(0, n_nodes - 1))
                    v = int(rng.integers(u + 1, n_nodes))
                    outcome = wire.post(f"/graphs/{session}/delta", {
                        "add_edges": [[u, v]], "ack": "applied",
                    })
                    token = outcome["token"]
                else:
                    payload = {
                        "nodes": [int(x) for x in
                                  rng.integers(0, n_nodes, size=nodes_per_query)],
                        "top_k": 1,
                    }
                    if token is not None:
                        payload["min_version"] = token
                    start = time.perf_counter()
                    wire.post(f"/graphs/{session}/query", payload)
                    mine.append(time.perf_counter() - start)
                    counts[index] += 1
        except Exception as exc:  # pragma: no cover - surfaced in the record
            errors.append(f"client {index}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(n_clients)]
    for thread in threads:
        thread.start()
    stop_at[0] = time.perf_counter() + duration
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    all_latencies = [lat for client_lats in latencies for lat in client_lats]
    return {
        "n_workers": n_workers,
        "n_clients": n_clients,
        "elapsed_seconds": elapsed,
        "n_queries": sum(counts),
        "queries_per_second": sum(counts) / elapsed if elapsed else 0.0,
        "query_p50_ms": percentile_ms(all_latencies, 50),
        "query_p99_ms": percentile_ms(all_latencies, 99),
        "errors": errors,
    }


def run_worker_sweep(args, graph) -> dict:
    """The horizontal-tier sweep: same workload, growing worker pools."""
    from repro.serve.router import Router

    sweep = sorted(set(args.workers))
    max_workers = max(sweep)
    sessions = balanced_session_names(max_workers)
    n_clients = max(args.clients, max_workers)
    per_pool: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        graph_path = save_graph_npz(graph, Path(tmp) / "bench.npz")
        for n in sweep:
            print(f"  pool of {n} worker(s): loading {len(sessions)} "
                  f"session(s), {n_clients} clients x {args.duration:.0f}s ...")
            worker_args = [
                "--lenient",
                "--max-batch", str(args.max_batch),
                "--max-latency", str(args.max_latency),
            ]
            with Router(n, queue_dir=Path(tmp) / f"queues-{n}",
                        worker_args=worker_args,
                        spawn_timeout=300.0) as router:
                for session in sessions:
                    status, body, _ = router.handle_load({
                        "name": session, "path": str(graph_path),
                        "fraction": args.fraction, "seed": args.seed,
                        "iterations": args.iterations,
                        "tolerance": args.tolerance,
                    })
                    if status != 201:
                        raise RuntimeError(
                            f"load {session} on pool of {n}: {status} {body!r}")
                record = run_worker_pool(
                    router, sessions, n_clients, args.duration,
                    args.queries_per_delta, args.nodes_per_query,
                    args.nodes, args.seed + 5000 * n,
                )
            per_pool[str(n)] = record
            print(f"    {record['queries_per_second']:9.0f} q/s   "
                  f"p50 {record['query_p50_ms']:6.2f} ms  "
                  f"p99 {record['query_p99_ms']:6.2f} ms")
            if record["errors"]:
                print(f"    errors: {record['errors'][:3]}")
    return {
        "host_cpus": os.cpu_count(),
        "sessions": sessions,
        "pool_sizes": sweep,
        "per_pool": per_pool,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=60_000)
    parser.add_argument("--edges", type=int, default=120_000)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--fraction", type=float, default=0.05,
                        help="revealed seed-label fraction")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds per load phase")
    parser.add_argument("--queries-per-delta", type=int, default=20,
                        dest="queries_per_delta",
                        help="each client sends one delta per this many queries")
    parser.add_argument("--nodes-per-query", type=int, default=32,
                        dest="nodes_per_query")
    parser.add_argument("--max-batch", type=int, default=256, dest="max_batch")
    parser.add_argument("--max-latency", type=float, default=0.005,
                        dest="max_latency")
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--tolerance", type=float, default=1e-7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="also sweep the horizontal tier at these pool "
                             "sizes (e.g. --workers 1 2 4 8); records "
                             "speedup_N_workers ratios")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_serve.json"),
    )
    args = parser.parse_args(argv)

    compatibility = skew_compatibility(args.classes, h=3.0)
    graph = generate_graph(
        args.nodes, args.edges, compatibility, seed=args.seed, name="bench-serve"
    )
    # Lenient deltas: concurrent random-edge generators may collide with an
    # existing edge; summing the weight is fine for a load test.
    service = InferenceService(strict_deltas=False)
    info = service.load_graph(
        GRAPH_NAME,
        graph=graph.copy(),
        fraction=args.fraction,
        seed=args.seed,
        iterations=args.iterations,
        tolerance=args.tolerance,
    )
    print(f"serving {info['n_nodes']} nodes / {info['n_edges']} edges, "
          f"{info['n_seeds']} seeds, propagator {info['propagator']}")

    phases = {}
    print(f"\nunbatched: {args.clients} clients x {args.duration:.0f}s "
          f"(1 delta per {args.queries_per_delta} queries) ...")
    phases["unbatched"] = run_load(
        service, service, args.clients, args.duration,
        args.queries_per_delta, args.nodes_per_query, args.nodes, args.seed,
    )

    print(f"batched:   same workload through the micro-batcher ...")
    with MicroBatcher(
        service, max_batch=args.max_batch, max_latency_seconds=args.max_latency
    ) as batcher:
        phases["batched"] = run_load(
            batcher, service, args.clients, args.duration,
            args.queries_per_delta, args.nodes_per_query, args.nodes,
            args.seed + 1000,
        )
        phases["batched"]["batcher"] = batcher.stats()
        delta_check = check_delta_mid_load(batcher, service, graph)

    for mode in ("unbatched", "batched"):
        record = phases[mode]
        print(f"  {mode:10s} {record['queries_per_second']:9.0f} q/s   "
              f"p50 {record['query_p50_ms']:6.2f} ms  "
              f"p99 {record['query_p99_ms']:6.2f} ms   "
              f"{record['n_deltas']} deltas -> "
              f"{record['n_propagations']} propagations")
        if record["errors"]:
            print(f"    errors: {record['errors'][:3]}")

    speedup = (
        phases["batched"]["queries_per_second"]
        / phases["unbatched"]["queries_per_second"]
        if phases["unbatched"]["queries_per_second"]
        else 0.0
    )
    print(f"\nmicro-batching speedup: {speedup:.2f}x queries/sec "
          f"at {args.clients} clients (target >= 3x)")
    print(f"delta mid-load: reflected={delta_check['reflected']} "
          f"staleness_reset={delta_check['staleness_reset']} "
          f"(belief change {delta_check['belief_change']:.2e}, "
          f"queries_since_refresh "
          f"{delta_check['queries_since_refresh_before']} -> "
          f"{delta_check['queries_since_refresh_after']})")

    sweep = None
    if args.workers:
        print(f"\nhorizontal tier sweep: pools of "
              f"{sorted(set(args.workers))} worker process(es) ...")
        sweep = run_worker_sweep(args, graph)

    results = {
        "graph": {
            "n_nodes": args.nodes,
            "n_edges": args.edges,
            "n_classes": args.classes,
            "seed_fraction": args.fraction,
            "propagator": "linbp",
        },
        "workload": {
            "n_clients": args.clients,
            "duration_seconds": args.duration,
            "queries_per_delta": args.queries_per_delta,
            "nodes_per_query": args.nodes_per_query,
            "top_k": 1,
            "max_batch": args.max_batch,
            "max_latency_seconds": args.max_latency,
        },
        "unbatched": phases["unbatched"],
        "batched": phases["batched"],
        "speedup_queries_per_second": speedup,
        "meets_3x_target": bool(speedup >= 3.0),
        "delta_mid_load": delta_check,
    }
    if sweep is not None:
        results["workers_sweep"] = sweep
        base_qps = sweep["per_pool"][str(min(sweep["pool_sizes"]))][
            "queries_per_second"]
        for n in sweep["pool_sizes"][1:]:
            ratio = (sweep["per_pool"][str(n)]["queries_per_second"] / base_qps
                     if base_qps else 0.0)
            results[f"speedup_{n}_workers"] = ratio
            print(f"pool speedup at {n} workers: {ratio:.2f}x "
                  f"(host has {sweep['host_cpus']} cpu(s))")
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Micro-benchmark: runner fan-out, cache-replay, sharding and store appends.

Measures, on the same grid (graphs x {MCE, DCEr} x two label fractions x
repetitions):

* **serial** — ``n_workers=1``, the baseline the sweeps historically ran at;
* **parallel** — ``n_workers=N`` over a fresh store, same grid (on a
  multi-core machine this is the fan-out speedup; the result payloads are
  asserted bitwise-equal to the serial run);
* **cached replay** — the parallel store re-executed, which must touch zero
  runs and is therefore a pure measure of store/hashing overhead;
* **sharded** — the grid split with ``GridSpec.shard`` across 2 and 4
  concurrent single-worker processes appending into one shared store
  directory (the distributed-execution topology, measured on one machine),
  the shared store's records asserted identical to the serial run;
* **store appends** — raw append throughput (records/second) of the JSONL
  result store.

Writes ``BENCH_runner.json`` next to the repository root (or to
``--output``), extending the performance trajectory started by
``bench_propagation.py``.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_runner.py
    PYTHONPATH=src python benchmarks/bench_runner.py --edges 20000 --workers 4
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import tempfile
import time
from pathlib import Path

from repro.runner import GridSpec, ResultStore, execute_grid


def build_grid(n_nodes: int, n_edges: int, n_repetitions: int) -> GridSpec:
    return GridSpec(
        name="bench-runner",
        graphs=[
            {
                "kind": "generate",
                "name": f"bench-{seed}",
                "n_nodes": n_nodes,
                "n_edges": n_edges,
                "n_classes": 3,
                "h": 3.0,
                "seed": seed,
            }
            for seed in (1, 2)
        ],
        estimators=["MCE", {"name": "DCEr", "kwargs": {"n_restarts": 5, "seed": 0}}],
        label_fractions=[0.05, 0.1],
        n_repetitions=n_repetitions,
        base_seed=3,
    )


def _run_shard(grid_payload: dict, store_path: str, index: int, n_shards: int) -> None:
    """Child-process entry point: execute one shard into the shared store."""
    grid = GridSpec.from_dict(grid_payload)
    store = ResultStore(store_path)
    execute_grid(grid.shard(index, n_shards), store=store, n_workers=1)


def bench_shards(grid: GridSpec, store_path: Path, n_shards: int) -> float:
    """Wall time of ``n_shards`` concurrent shard processes sharing a store."""
    context = multiprocessing.get_context()
    workers = [
        context.Process(
            target=_run_shard,
            args=(grid.to_dict(), str(store_path), index, n_shards),
        )
        for index in range(n_shards)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
        if worker.exitcode != 0:
            raise RuntimeError(f"shard worker exited with {worker.exitcode}")
    return time.perf_counter() - start


def bench_store_appends(n_records: int = 2_000) -> dict:
    """Raw append throughput (records/second) of the JSONL store."""
    record_template = {
        "spec": {"estimator": "MCE", "label_fraction": 0.1,
                 "graph": {"kind": "generate", "name": "bench"}},
        "status": "ok",
        "result": {"accuracy": 0.5, "l2_to_gold": 0.1,
                   "compatibility": [[0.1, 0.6, 0.3]] * 3},
        "timing": {"total_seconds": 0.01},
    }
    with tempfile.TemporaryDirectory(prefix="bench-append-") as tmp:
        store = ResultStore(Path(tmp) / "jsonl-store")
        start = time.perf_counter()
        for index in range(n_records):
            store.append(dict(record_template, hash=f"h{index:08d}"))
        elapsed = time.perf_counter() - start
    return {
        "jsonl": {
            "n_records": n_records,
            "seconds": elapsed,
            "records_per_second": n_records / max(elapsed, 1e-12),
        }
    }


def bench_runner(n_nodes: int, n_edges: int, n_repetitions: int, n_workers: int) -> dict:
    grid = build_grid(n_nodes, n_edges, n_repetitions)
    results: dict = {
        "grid": {
            "n_runs": grid.n_runs,
            "n_graphs": len(grid.graphs),
            "n_nodes": n_nodes,
            "n_edges": n_edges,
            "n_repetitions": n_repetitions,
        },
        "n_workers": n_workers,
    }

    with tempfile.TemporaryDirectory(prefix="bench-runner-") as tmp:
        serial_store = ResultStore(Path(tmp) / "serial")
        start = time.perf_counter()
        serial = execute_grid(grid, store=serial_store, n_workers=1)
        serial_seconds = time.perf_counter() - start

        parallel_store = ResultStore(Path(tmp) / "parallel")
        start = time.perf_counter()
        parallel = execute_grid(grid, store=parallel_store, n_workers=n_workers)
        parallel_seconds = time.perf_counter() - start

        mismatches = sum(
            1
            for a, b in zip(serial.outcomes, parallel.outcomes)
            if a.result != b.result
        )

        start = time.perf_counter()
        replay = execute_grid(grid, store=parallel_store, n_workers=n_workers)
        replay_seconds = time.perf_counter() - start

        serial_payloads = [
            (record["hash"], record["result"]) for record in serial_store.records()
        ]
        shard_results = {}
        for n_shards in (2, 4):
            shard_store = Path(tmp) / f"sharded-{n_shards}"
            shard_seconds = bench_shards(grid, shard_store, n_shards)
            merged = ResultStore(shard_store)
            shard_mismatch = serial_payloads != [
                (record["hash"], record["result"]) for record in merged.records()
            ]
            shard_results[f"{n_shards}_shards"] = {
                "seconds": shard_seconds,
                "speedup_vs_serial": serial_seconds / max(shard_seconds, 1e-12),
                "records_mismatch": shard_mismatch,
            }

    results.update(
        {
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "parallel_speedup": serial_seconds / max(parallel_seconds, 1e-12),
            "parallel_serial_mismatches": mismatches,
            "cached_replay_seconds": replay_seconds,
            "cached_replay_hits": replay.n_cached,
            "cached_replay_executed": replay.n_executed,
            "replay_speedup": serial_seconds / max(replay_seconds, 1e-12),
            "sharded": shard_results,
            "backend_append_throughput": bench_store_appends(),
        }
    )
    print(
        f"{grid.n_runs} runs: serial {serial_seconds:.2f}s, "
        f"parallel({n_workers}) {parallel_seconds:.2f}s "
        f"({results['parallel_speedup']:.2f}x, {mismatches} mismatches), "
        f"cached replay {replay_seconds*1e3:.1f} ms "
        f"({replay.n_cached}/{grid.n_runs} hits)"
    )
    for label, shard in shard_results.items():
        print(
            f"  {label.replace('_', ' ')}: {shard['seconds']:.2f}s "
            f"({shard['speedup_vs_serial']:.2f}x vs serial, "
            f"mismatch={shard['records_mismatch']})"
        )
    stats = results["backend_append_throughput"]["jsonl"]
    print(
        f"  appends: {stats['records_per_second']:,.0f} records/s "
        f"({stats['n_records']} in {stats['seconds']:.3f}s)"
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2_000)
    parser.add_argument("--edges", type=int, default=10_000)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_runner.json"),
    )
    args = parser.parse_args(argv)

    results = bench_runner(args.nodes, args.edges, args.repetitions, args.workers)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2), encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Micro-benchmark: time every registered propagator on one synthetic graph.

Generates a planted-compatibility graph (50k edges by default), runs each of
the four algorithms in the ``PROPAGATORS`` registry (LinBP with and without
echo cancellation, loopy BP, harmonic functions) through the unified engine,
and reports per-call and per-iteration wall time.  LinBP is additionally run
twice on the same :class:`~repro.graph.graph.Graph` to measure what the
cached operator layer saves: the first call pays for the cold Lanczos
spectral radius behind the convergence scaling, the second call reuses it.

Writes ``BENCH_propagation.json`` next to the repository root (or to
``--output``), seeding the performance trajectory that future PRs extend.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_propagation.py
    PYTHONPATH=src python benchmarks/bench_propagation.py --edges 200000 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.compatibility import skew_compatibility
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.propagation import PROPAGATORS, get_propagator

# Iteration caps per algorithm so one benchmark pass stays comparable: the
# slow reference algorithms (loopy BP) get the same sweep budget as the rest.
BENCH_MAX_ITERATIONS = 10


def _time_call(function, repeats: int) -> dict:
    timings = []
    payload = None
    for _ in range(repeats):
        start = time.perf_counter()
        payload = function()
        timings.append(time.perf_counter() - start)
    return {
        "best_seconds": min(timings),
        "mean_seconds": float(np.mean(timings)),
        "timings": timings,
        "payload": payload,
    }


def bench_propagators(
    n_nodes: int, n_edges: int, n_classes: int, label_fraction: float,
    repeats: int, seed: int,
) -> dict:
    compatibility = skew_compatibility(n_classes, h=3.0)
    graph = generate_graph(
        n_nodes, n_edges, compatibility, seed=seed, name="bench-propagation"
    )
    seed_labels = stratified_seed_labels(
        graph.require_labels(), fraction=label_fraction, rng=seed
    )

    results: dict = {
        "graph": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_classes": n_classes,
            "label_fraction": label_fraction,
        },
        "max_iterations": BENCH_MAX_ITERATIONS,
        "repeats": repeats,
        "propagators": {},
    }

    for name in sorted(PROPAGATORS):
        propagator = get_propagator(name, max_iterations=BENCH_MAX_ITERATIONS)

        def run(propagator=propagator):
            return propagator.propagate(
                graph,
                seed_labels,
                compatibility=compatibility if propagator.needs_compatibility else None,
            )

        # Warm-up primes the graph's cached operator layer so every
        # algorithm is measured on its steady-state per-call cost.
        warmup = _time_call(run, 1)
        timed = _time_call(run, repeats)
        result = timed["payload"]
        iterations = max(1, result.n_iterations)
        results["propagators"][name] = {
            "cold_seconds": warmup["best_seconds"],
            "best_seconds": timed["best_seconds"],
            "mean_seconds": timed["mean_seconds"],
            "n_iterations": result.n_iterations,
            "seconds_per_iteration": timed["best_seconds"] / iterations,
            "converged": result.converged,
        }
        print(
            f"{name:12s} cold {warmup['best_seconds']*1e3:9.2f} ms   "
            f"warm {timed['best_seconds']*1e3:9.2f} ms   "
            f"{result.n_iterations:3d} sweeps"
        )

    # Repeated-call LinBP workload: a fresh graph object pays for the power
    # iteration once; every later call reuses the cached scaling.
    fresh = graph.copy()
    linbp = get_propagator("linbp", max_iterations=BENCH_MAX_ITERATIONS)

    def run_linbp():
        return linbp.propagate(fresh, seed_labels, compatibility=compatibility)

    first = _time_call(run_linbp, 1)
    later = _time_call(run_linbp, repeats)
    iterations = max(1, later["payload"].n_iterations)
    results["linbp_repeated_calls"] = {
        "first_call_seconds": first["best_seconds"],
        "cached_call_seconds": later["best_seconds"],
        "cached_per_iteration_seconds": later["best_seconds"] / iterations,
        "speedup_after_caching": first["best_seconds"] / max(
            later["best_seconds"], 1e-12
        ),
    }
    print(
        f"linbp repeated-call: first {first['best_seconds']*1e3:.2f} ms, "
        f"cached {later['best_seconds']*1e3:.2f} ms "
        f"({results['linbp_repeated_calls']['speedup_after_caching']:.1f}x)"
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=5_000)
    parser.add_argument("--edges", type=int, default=50_000)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--fraction", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_propagation.json"),
    )
    args = parser.parse_args(argv)

    results = bench_propagators(
        args.nodes, args.edges, args.classes, args.fraction, args.repeats, args.seed
    )
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2), encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

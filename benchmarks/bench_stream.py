"""Micro-benchmark: incremental propagation vs. full re-solve across delta sizes.

For each delta size (a fraction of the graph's edges, inserted as fresh
random edges) the benchmark measures, on the same updated graph:

* **full rebuild** — what the batch pipeline pays today: rebuild the
  :class:`~repro.graph.graph.Graph` from the complete edge list, construct a
  fresh operator cache (cold Lanczos spectral radius included) and solve the
  fixed point from scratch;
* **full re-solve (cached graph)** — the same without the edge-list rebuild
  (fresh operators + cold solve on the already-built CSR), reported for
  transparency;
* **incremental** — ``StreamingSession.step``: ``O(nnz + delta)`` CSR
  mutation, warm Lanczos spectral-radius restart, warm-started fixed point;
* **localized** — the same session scenario with residual-push localized
  solves opted in (``localized=True``), plus its frontier-size /
  touched-nonzeros statistics;

Session timings are *steady-state*: each session absorbs one unmeasured
warmup delta between the anchor solve and the timed step, so one-off
anchor transients (first warm restart, scaling-ladder rung sync) are paid
where a real stream pays them — once, not on every step.  The full solves
run on the final graph (base + warmup + measured edges), so the deviation
check still compares identical fixed points.

plus the max belief deviation of the incremental *and* localized answers
against the full rebuild (the correctness contract: ≤ 1e-6).

One untimed warmup solve runs per kernel backend before measurement (on the
numba backend this absorbs JIT compilation), and the backend name is
recorded in the output JSON.

A large tier (1M nodes / 2M edges by default) measuring localized vs the
plain warm path runs when ``--large`` is passed or ``REPRO_BENCH_LARGE`` is
set to a truthy value.

The output also records an ``obs_overhead`` section comparing the median
steady-state step time with ``repro.obs`` metrics recording enabled vs
disabled (the instrumentation budget is 2%).

Writes ``BENCH_stream.json`` next to the repository root (or to
``--output``), extending the performance trajectory of
``bench_propagation.py`` and ``bench_runner.py``.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_stream.py
    PYTHONPATH=src python benchmarks/bench_stream.py --nodes 20000 --edges 50000
    PYTHONPATH=src python benchmarks/bench_stream.py --propagators linbp,lgc
    REPRO_BENCH_LARGE=1 PYTHONPATH=src python benchmarks/bench_stream.py
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.compatibility import skew_compatibility
from repro.core.statistics import gold_standard_compatibility
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph
from repro.propagation import kernels
from repro.propagation.engine import get_propagator
from repro.stream import GraphDelta, StreamingSession

# Streaming solves must actually converge — warm and cold runs only agree at
# the fixed point, never at the paper's 10-sweep budget.
PROPAGATOR_CONFIGS = {
    "linbp": dict(max_iterations=300, tolerance=1e-7),
    "linbp_echo": dict(max_iterations=300, tolerance=1e-7),
    "harmonic": dict(max_iterations=3000, tolerance=1e-10),
    "lgc": dict(max_iterations=1000, tolerance=1e-10),
    "mrw": dict(max_iterations=1000, tolerance=1e-10),
    "bp": dict(max_iterations=200, tolerance=1e-8),
    "cocitation": dict(),
}


def fresh_random_edges(adjacency, n_edges: int, rng) -> np.ndarray:
    """Sample edges absent from the graph (no duplicates, no self-loops)."""
    n = adjacency.shape[0]
    collected = np.empty((0, 2), dtype=np.int64)
    while collected.shape[0] < n_edges:
        batch = rng.integers(0, n, size=(2 * (n_edges - collected.shape[0]) + 8, 2))
        low = batch.min(axis=1)
        high = batch.max(axis=1)
        batch = np.column_stack([low, high])[low != high]
        present = np.asarray(adjacency[batch[:, 0], batch[:, 1]]).ravel() != 0
        batch = batch[~present]
        collected = np.unique(np.vstack([collected, batch]), axis=0)
    # np.unique sorted the pool deterministically; subsample to exact size.
    keep = rng.choice(collected.shape[0], n_edges, replace=False)
    return collected[np.sort(keep)]


def bench_one(graph, compatibility, seed_labels, propagator_name: str,
              delta_fraction: float, n_repeats: int, rng) -> dict:
    """Measure one (propagator, delta size) cell; returns the record."""
    config = PROPAGATOR_CONFIGS.get(propagator_name, {})
    base_edges = graph.edge_list()
    labels = graph.labels
    n_delta = max(1, int(delta_fraction * base_edges.shape[0]))

    full_rebuild, full_cached, incremental, deviations = [], [], [], []
    localized, localized_deviations = [], []
    localized_modes: list[str] = []
    frontier_sizes: list[int] = []
    touched_counts: list[int] = []
    for _ in range(n_repeats):
        # One pool of fresh edges, split into a warmup delta (absorbed
        # untimed, bringing each session to streaming steady state) and the
        # measured delta — disjoint by construction.
        pool = fresh_random_edges(graph.adjacency, 2 * n_delta, rng)
        warm_edges, new_edges = pool[:n_delta], pool[n_delta:]

        # Incremental: a session anchored on the base graph takes the delta.
        session = StreamingSession(
            graph.copy(),
            get_propagator(propagator_name, **config),
            compatibility=compatibility,
            seed_labels=seed_labels,
        )
        session.propagate()
        session.step(GraphDelta(add_edges=warm_edges))
        step = session.step(GraphDelta(add_edges=new_edges))
        incremental.append(step.total_seconds)

        # Localized: the same scenario with residual push opted in.
        localized_session = StreamingSession(
            graph.copy(),
            get_propagator(propagator_name, **config),
            compatibility=compatibility,
            seed_labels=seed_labels,
            localized=True,
        )
        localized_session.propagate()
        localized_session.step(GraphDelta(add_edges=warm_edges))
        localized_step = localized_session.step(GraphDelta(add_edges=new_edges))
        localized.append(localized_step.total_seconds)
        localized_modes.append(localized_step.mode)
        touched_counts.append(int(localized_step.touched_nnz))
        details = localized_step.result.details
        if details.get("localized"):
            frontier_sizes.append(int(details.get("max_frontier", 0)))

        # Full rebuild: edge list -> Graph -> fresh operators -> cold solve.
        propagator = get_propagator(propagator_name, **config)
        start = time.perf_counter()
        rebuilt = Graph.from_edges(
            np.vstack([base_edges, warm_edges, new_edges]),
            n_nodes=graph.n_nodes,
            labels=labels,
            n_classes=graph.n_classes,
        )
        result_full = propagator.propagate(
            rebuilt,
            seed_labels,
            compatibility=compatibility if propagator.needs_compatibility else None,
        )
        full_rebuild.append(time.perf_counter() - start)

        # Full re-solve on the already-built CSR (fresh operators only).
        cached_graph = Graph(
            adjacency=session.graph.adjacency.copy(),
            labels=session.graph.labels,
            n_classes=graph.n_classes,
        )
        propagator = get_propagator(propagator_name, **config)
        start = time.perf_counter()
        propagator.propagate(
            cached_graph,
            seed_labels,
            compatibility=compatibility if propagator.needs_compatibility else None,
        )
        full_cached.append(time.perf_counter() - start)

        deviations.append(float(np.abs(step.result.beliefs - result_full.beliefs).max()))
        localized_deviations.append(
            float(np.abs(localized_step.result.beliefs - result_full.beliefs).max())
        )

    record = {
        "propagator": propagator_name,
        "delta_fraction": delta_fraction,
        "n_delta_edges": n_delta,
        "full_rebuild_seconds": float(np.median(full_rebuild)),
        "full_cached_graph_seconds": float(np.median(full_cached)),
        "incremental_seconds": float(np.median(incremental)),
        "localized_seconds": float(np.median(localized)),
        "localized_modes": localized_modes,
        "speedup_vs_rebuild": float(np.median(full_rebuild) / np.median(incremental)),
        "speedup_vs_cached": float(np.median(full_cached) / np.median(incremental)),
        "localized_speedup_vs_rebuild": float(
            np.median(full_rebuild) / np.median(localized)
        ),
        "localized_speedup_vs_cached": float(
            np.median(full_cached) / np.median(localized)
        ),
        "localized_speedup_vs_warm": float(
            np.median(incremental) / np.median(localized)
        ),
        "max_frontier": int(np.median(frontier_sizes)) if frontier_sizes else None,
        "touched_nnz": int(np.median(touched_counts)) if touched_counts else None,
        "max_belief_deviation": float(np.max(deviations)),
        "localized_max_belief_deviation": float(np.max(localized_deviations)),
    }
    print(f"{propagator_name:10s} delta {delta_fraction:6.3%} ({n_delta:6d} edges): "
          f"full {record['full_rebuild_seconds']*1e3:8.1f} ms, "
          f"incr {record['incremental_seconds']*1e3:7.1f} ms, "
          f"loc {record['localized_seconds']*1e3:7.1f} ms "
          f"-> {record['localized_speedup_vs_cached']:5.2f}x vs cached "
          f"(dev {record['localized_max_belief_deviation']:.1e}, "
          f"frontier {record['max_frontier']}, "
          f"touched {record['touched_nnz']})")
    return record


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


TRACE_SAMPLE_P = 0.1  # the deployment default the acceptance check exercises


def bench_obs_overhead(graph, compatibility, seed_labels, args, rng) -> dict:
    """Steady-state step time with observability off / on / on + sampled tracing.

    Three identical streaming sessions absorb the same warmup delta, then
    replay the same measured deltas under three instrumentation levels:

    * ``disabled`` — ``repro.obs`` recording switched off (the floor);
    * ``metrics`` — recording enabled, tracing unconfigured (a scrape-only
      deployment: the counter/histogram write path on the session, engine,
      and push hot loops);
    * ``sampled`` — recording enabled *plus* a trace sink with head
      sampling at ``TRACE_SAMPLE_P`` (the ``repro serve --trace
      --trace-sample 0.1`` deployment).

    Per-step times are pooled across repeats and compared by the median of
    paired differences against the disabled floor — step *i* of each round
    replays the same delta chunk on identically evolved sessions, so pairing
    removes the chunk-to-chunk cost variation that unpaired medians mix in.
    Both overheads must stay within the 2% instrumentation budget.
    """
    from repro import obs

    config = PROPAGATOR_CONFIGS["linbp"]
    n_delta = max(1, int(0.005 * graph.n_edges))
    n_steps = 10
    n_reveal = 5  # per measured step, so the prequential path is in-budget
    truth = graph.require_labels()
    variants = ("disabled", "metrics", "sampled")
    per_step: dict[str, list[float]] = {name: [] for name in variants}
    n_trace_records = 0
    for round_index in range(max(3, args.repeats)):
        pool = fresh_random_edges(graph.adjacency, (n_steps + 1) * n_delta, rng)
        chunks = [
            pool[index * n_delta:(index + 1) * n_delta]
            for index in range(n_steps + 1)
        ]
        # Every measured step also reveals a few true labels: the quality
        # telemetry (prequential scoring, reveal pair updates, drift
        # refresh) has a per-reveal cost that an edges-only stream would
        # leave out of the budget.  All variants replay the same reveals.
        hidden = rng.permutation(np.flatnonzero(seed_labels < 0))
        reveals = [
            hidden[index * n_reveal:(index + 1) * n_reveal]
            for index in range(n_steps)
        ]
        # Rotate the run order each round so slow machine drift (thermal,
        # competing load) cancels instead of biasing one variant.
        order = variants[round_index % 3:] + variants[:round_index % 3]
        for variant in order:
            previous_enabled = obs.set_enabled(variant != "disabled")
            previous_sink = None
            previous_sampling = None
            sink_records: list[dict] = []
            if variant == "sampled":
                previous_sink = obs.configure_tracing(sink_records.append)
                previous_sampling = obs.configure_sampling(
                    probability=TRACE_SAMPLE_P
                )
            try:
                with obs.use_registry():
                    session = StreamingSession(
                        graph.copy(),
                        get_propagator("linbp", **config),
                        compatibility=compatibility,
                        seed_labels=seed_labels,
                    )
                    session.propagate()
                    session.step(GraphDelta(add_edges=chunks[0]))  # warmup
                    for chunk, reveal in zip(chunks[1:], reveals):
                        delta = GraphDelta(
                            add_edges=chunk,
                            reveal_nodes=reveal,
                            reveal_labels=truth[reveal],
                        )
                        start = time.perf_counter()
                        session.step(delta)
                        per_step[variant].append(time.perf_counter() - start)
            finally:
                obs.set_enabled(previous_enabled)
                if variant == "sampled":
                    obs.configure_tracing(previous_sink)
                    obs.configure_sampling(*previous_sampling)
                    n_trace_records += len(sink_records)

    disabled = np.asarray(per_step["disabled"])
    disabled_seconds = float(np.median(disabled))

    def paired_overhead(name: str) -> float:
        deltas = np.asarray(per_step[name]) - disabled
        return (
            float(np.median(deltas)) / disabled_seconds
            if disabled_seconds > 0 else 0.0
        )

    overhead = paired_overhead("metrics")
    sampling_overhead = paired_overhead("sampled")
    record = {
        "enabled_seconds": float(np.median(per_step["metrics"])),
        "disabled_seconds": disabled_seconds,
        "overhead_fraction": overhead,
        "within_2pct": overhead <= 0.02,
        "sampled_tracing_seconds": float(np.median(per_step["sampled"])),
        "sampling_overhead_fraction": sampling_overhead,
        "sampling_within_2pct": sampling_overhead <= 0.02,
        "trace_sample_probability": TRACE_SAMPLE_P,
        "n_trace_records": n_trace_records,
        "n_steps_measured": len(per_step["metrics"]),
    }
    print(f"obs overhead: disabled {disabled_seconds*1e3:.2f} ms/step, "
          f"metrics {record['enabled_seconds']*1e3:.2f} ms/step "
          f"({overhead:+.2%}), sampled tracing "
          f"{record['sampled_tracing_seconds']*1e3:.2f} ms/step "
          f"({sampling_overhead:+.2%}, {n_trace_records} spans kept) — "
          f"budget 2%: metrics "
          f"{'within' if record['within_2pct'] else 'OVER'}, sampling "
          f"{'within' if record['sampling_within_2pct'] else 'OVER'}")
    return record


def bench_large(args, rng) -> dict:
    """Large tier: localized vs the plain warm path on a 1M/2M graph.

    No cold re-solves here (they would dominate the tier's runtime without
    adding information); the comparison the tier exists for is the
    residual-push frontier against full dense warm sweeps at a scale where
    ``O(nnz)`` per sweep genuinely hurts.  The default delta is an order
    smaller than the small tier's smallest: locality is a function of the
    *absolute* perturbation, so holding the fraction constant while the
    graph grows 10x would push the ball past the crossover the small tier
    already maps.
    """
    compatibility = skew_compatibility(args.classes, h=3.0)
    print(f"large tier: generating {args.large_nodes:,} nodes / "
          f"{args.large_edges:,} edges ...")
    graph = generate_graph(
        args.large_nodes, args.large_edges, compatibility,
        seed=args.seed, name="bench-stream-large",
    )
    seed_labels = stratified_seed_labels(
        graph.require_labels(), fraction=args.fraction, rng=3
    )
    gold = gold_standard_compatibility(graph)
    config = PROPAGATOR_CONFIGS["linbp"]
    n_delta = max(1, int(args.large_delta * graph.n_edges))

    measurements = {"incremental": [], "localized": []}
    frontier_sizes, touched_counts, deviations = [], [], []
    for _ in range(max(1, args.large_repeats)):
        pool = fresh_random_edges(graph.adjacency, 2 * n_delta, rng)
        warm_edges, new_edges = pool[:n_delta], pool[n_delta:]
        steps = {}
        for mode, flag in (("incremental", False), ("localized", True)):
            session = StreamingSession(
                graph.copy(),
                get_propagator("linbp", **config),
                compatibility=gold,
                seed_labels=seed_labels,
                localized=flag,
            )
            session.propagate()
            session.step(GraphDelta(add_edges=warm_edges))
            step = session.step(GraphDelta(add_edges=new_edges))
            measurements[mode].append(step.total_seconds)
            steps[mode] = step
        details = steps["localized"].result.details
        if details.get("localized"):
            frontier_sizes.append(int(details.get("max_frontier", 0)))
        touched_counts.append(int(steps["localized"].touched_nnz))
        deviations.append(float(np.abs(
            steps["localized"].result.beliefs - steps["incremental"].result.beliefs
        ).max()))

    warm = float(np.median(measurements["incremental"]))
    local = float(np.median(measurements["localized"]))
    record = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "propagator": "linbp",
        "delta_fraction": args.large_delta,
        "n_delta_edges": n_delta,
        "incremental_seconds": warm,
        "localized_seconds": local,
        "localized_speedup_vs_warm": warm / local if local > 0 else None,
        "max_frontier": int(np.median(frontier_sizes)) if frontier_sizes else None,
        "touched_nnz": int(np.median(touched_counts)) if touched_counts else None,
        "max_belief_deviation": float(np.max(deviations)),
    }
    print(f"large tier   delta {args.large_delta:6.3%} ({n_delta:6d} edges): "
          f"warm {warm*1e3:8.1f} ms, loc {local*1e3:7.1f} ms "
          f"-> {record['localized_speedup_vs_warm']:5.2f}x vs warm "
          f"(dev {record['max_belief_deviation']:.1e}, "
          f"frontier {record['max_frontier']}, touched {record['touched_nnz']})")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--edges", type=int, default=150_000)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--fraction", type=float, default=0.05,
                        help="initially revealed label fraction")
    parser.add_argument("--deltas", default="0.001,0.005,0.01,0.05",
                        help="comma-separated delta sizes as edge fractions")
    parser.add_argument("--propagators", default="linbp",
                        help="comma-separated registry names (or 'all')")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--large", action="store_true",
                        help="also run the 1M-node/2M-edge localized tier "
                             "(or set REPRO_BENCH_LARGE=1)")
    parser.add_argument("--large-nodes", type=int, default=1_000_000)
    parser.add_argument("--large-edges", type=int, default=2_000_000)
    parser.add_argument("--large-delta", type=float, default=0.0001,
                        help="delta size (edge fraction) for the large tier "
                             "(default 1e-4: the tier probes locality at "
                             "scale, and a fixed *fraction* grows the "
                             "absolute delta — and its push ball — past the "
                             "locality crossover the small tier already maps)")
    parser.add_argument("--large-repeats", type=int, default=1)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_stream.json"),
    )
    args = parser.parse_args(argv)

    # One untimed warmup per kernel backend: on numba this absorbs the JIT
    # compile so the timed cells see steady-state kernels.
    kernels.warmup()
    print(f"kernel backend: {kernels.active_backend()} "
          f"(available: {', '.join(kernels.available_backends())})")

    compatibility = skew_compatibility(args.classes, h=3.0)
    graph = generate_graph(
        args.nodes, args.edges, compatibility, seed=args.seed, name="bench-stream"
    )
    seed_labels = stratified_seed_labels(
        graph.require_labels(), fraction=args.fraction, rng=3
    )
    gold = gold_standard_compatibility(graph)
    delta_fractions = [float(x) for x in args.deltas.split(",") if x]
    names = (
        sorted(PROPAGATOR_CONFIGS)
        if args.propagators == "all"
        else [x.strip() for x in args.propagators.split(",") if x.strip()]
    )

    rng = np.random.default_rng(args.seed + 1)
    records = [
        bench_one(graph, gold, seed_labels, name, fraction, args.repeats, rng)
        for name in names
        for fraction in delta_fractions
    ]

    results = {
        "graph": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_classes": args.classes,
            "seed_fraction": args.fraction,
        },
        "kernel_backend": kernels.active_backend(),
        "n_repeats": args.repeats,
        "records": records,
        "obs_overhead": bench_obs_overhead(
            graph, gold, seed_labels, args, rng
        ),
    }
    if args.large or _env_flag("REPRO_BENCH_LARGE"):
        results["large_tier"] = bench_large(args, rng)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface for the library.

Fourteen subcommands cover the end-to-end workflow without writing Python:

* ``repro generate``   — create a synthetic graph with planted compatibilities
* ``repro dataset``    — build one of the real-world dataset stand-ins
* ``repro summary``    — print structural statistics of a stored graph
* ``repro estimate``   — estimate the compatibility matrix from sparse labels
* ``repro experiment`` — run the full estimate-then-propagate experiment
* ``repro run``        — execute a grid spec (optionally one shard of it)
* ``repro report``     — summarize a runner result store as a table
* ``repro merge``      — union result stores (content-addressed, latest-wins)
* ``repro gc``         — compact a result store (drop superseded records)
* ``repro stream``     — replay a JSONL delta stream with incremental propagation
* ``repro serve``      — serve label-belief queries over HTTP (micro-batched)
* ``repro top``        — live dashboard over one or more serve ``/metrics``
* ``repro stats``      — summarize a trace file written by ``--trace``
* ``repro list``       — print the registered propagators and estimators

Graphs are exchanged as ``.npz`` bundles (see :mod:`repro.graph.io`).
Result stores are JSONL directories or SQLite files (``--backend``, or just
point ``--store`` at a ``.db`` path).

Examples
--------
    repro generate --nodes 5000 --edges 62500 --classes 3 --skew 3 -o graph.npz
    repro estimate graph.npz --method DCEr --fraction 0.01
    repro experiment graph.npz --method DCEr --fraction 0.01 --json result.json
    repro experiment graph.npz --method DCEr --propagator harmonic
    repro run grid.json --store runs/grid --workers 4
    repro run grid.json --store runs/grid.db --shard 0/2   # one of two shards
    repro report runs/grid
    repro merge runs/merged runs/shard-a runs/shard-b.db
    repro gc runs/grid --drop-failed
    repro stream graph.npz events.jsonl --verify-every 5 --json replay.json
    repro stream ab12ef --from-store runs/grid     # replay a stored run's graph
    repro serve graph.npz --port 8151              # online query service
    repro serve graph.npz --trace trace.jsonl --log-json
    repro serve graph.npz --slo examples/specs/serve_slo.json
    repro serve --workers 4 --queue-dir q/         # horizontal tier (router)
    repro top :8151 :8152                          # live fleet dashboard
    repro top --router :8150                       # discover fleet via router
    repro top :8151 --once --json                  # one federated summary
    repro stats trace.jsonl --slowest 3            # span report from a trace
    repro stats trace.jsonl --trace-id ab12cd      # one request's span tree

``--propagator`` and ``--method`` values are validated against the
``PROPAGATORS``/``ESTIMATORS`` registries of :mod:`repro.propagation.engine`
at execution time, so registering a new algorithm makes it available here
without touching this module; an unknown name (or a missing graph file)
exits with a one-line error listing the valid choices, never a traceback.
``repro stream`` and ``repro serve`` always run LinBP.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

import numpy as np

from repro.core.estimators import DCE, DCEr, GoldStandard, HoldoutEstimator, LCE, MCE
from repro.eval.experiment import run_experiment
from repro.eval.reporting import experiment_to_dict
from repro.eval.seeding import stratified_seed_labels
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.features import graph_summary
from repro.graph.generator import generate_graph
from repro.graph.io import load_graph_npz, save_graph_npz
from repro.core.compatibility import homophily_compatibility, skew_compatibility
from repro.propagation.engine import (
    ESTIMATORS as ESTIMATOR_REGISTRY,
    PROPAGATORS,
    propagator_names,
)
from repro.propagation.linbp import LinBPPropagator
from repro.runner import (
    GridSpec,
    ProgressPrinter,
    ResultStore,
    StoreCorruptionError,
    execute_grid,
    merge_stores,
    render_store_report,
    summarize_report,
)
from repro.runner.backends import backend_names

__all__ = ["main", "build_parser", "CLIError"]


class CLIError(Exception):
    """A user-facing CLI failure: printed as one clean line, exit code 2."""


# Per-method constructor shims: map parsed CLI arguments onto the estimator
# constructors (all of these classes are also in the ESTIMATORS registry of
# repro.propagation.engine, keyed by the same names).
ESTIMATORS = {
    "GS": lambda args: GoldStandard(),
    "LCE": lambda args: LCE(),
    "MCE": lambda args: MCE(),
    "DCE": lambda args: DCE(max_length=args.max_length, scaling=args.scaling),
    "DCEr": lambda args: DCEr(
        max_length=args.max_length,
        scaling=args.scaling,
        n_restarts=args.restarts,
        seed=args.seed,
    ),
    "Holdout": lambda args: HoldoutEstimator(seed=args.seed),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Factorized graph representations for SSL from sparse data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="create a synthetic graph")
    generate.add_argument("--nodes", type=int, required=True)
    generate.add_argument("--edges", type=int, required=True)
    generate.add_argument("--classes", type=int, default=3)
    generate.add_argument("--skew", type=float, default=3.0,
                          help="ratio h between max and min compatibility entries")
    generate.add_argument("--homophily", action="store_true",
                          help="plant a homophilous matrix instead of the paired pattern")
    generate.add_argument("--distribution", choices=["uniform", "powerlaw", "constant"],
                          default="uniform")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True, help="output .npz path")

    dataset = subparsers.add_parser("dataset", help="build a real-world dataset stand-in")
    dataset.add_argument("name", choices=dataset_names())
    dataset.add_argument("--scale", type=float, default=None)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("-o", "--output", required=True, help="output .npz path")

    summary = subparsers.add_parser("summary", help="print statistics of a stored graph")
    summary.add_argument("graph", help="input .npz path")

    estimate = subparsers.add_parser("estimate", help="estimate the compatibility matrix")
    _add_estimation_arguments(estimate)

    experiment = subparsers.add_parser(
        "experiment", help="estimate, propagate and score against ground truth"
    )
    _add_estimation_arguments(experiment)
    experiment.add_argument("--iterations", type=int, default=None,
                            help="propagation iteration cap (default: the "
                                 "selected propagator's native budget)")
    experiment.add_argument("--propagator", default="linbp",
                            help="propagation algorithm for the final labeling "
                                 "(see `repro list`)")
    experiment.add_argument("--json", help="write the result record to this JSON file")

    run = subparsers.add_parser(
        "run", help="execute a grid spec through the parallel runner"
    )
    run.add_argument("spec", help="grid spec JSON file (see `repro.runner.GridSpec`)")
    run.add_argument("--store", default=None,
                     help="result store: a directory (JSONL backend) or a "
                          ".db/.sqlite file (default: runs/<spec name>)")
    run.add_argument("--backend", default=None, choices=backend_names(),
                     help="store backend (default: inferred from the store path)")
    run.add_argument("--shard", default=None, metavar="I/N",
                     help="execute only shard I of N (e.g. 0/2); shards are "
                          "disjoint, deterministic, and union to the full grid")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: CPU count, at most 4)")
    run.add_argument("--serial", action="store_true",
                     help="run in-process instead of the worker pool")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-run wall-clock budget in seconds")
    run.add_argument("--force", action="store_true",
                     help="re-execute runs even when the store has a result")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines")

    report = subparsers.add_parser(
        "report", help="summarize a runner result store as a table"
    )
    report.add_argument("store", help="result store (directory or .db file) "
                                      "written by `repro run`")
    report.add_argument("--metric", default="accuracy",
                        choices=["accuracy", "l2_to_gold", "estimation_seconds",
                                 "propagation_seconds"])

    merge = subparsers.add_parser(
        "merge", help="union result stores into one (content-addressed, "
                      "latest-wins)"
    )
    merge.add_argument("destination",
                       help="destination store (created if absent; directory "
                            "or .db file)")
    merge.add_argument("sources", nargs="+",
                       help="source stores, applied in order (later sources "
                            "win on conflicting hashes)")
    merge.add_argument("--backend", default=None, choices=backend_names(),
                       help="destination backend (default: inferred from "
                            "the path)")

    gc = subparsers.add_parser(
        "gc", help="compact a result store: drop superseded duplicate records"
    )
    gc.add_argument("store", help="result store (directory or .db file) "
                                  "written by `repro run`")
    gc.add_argument("--drop-failed", action="store_true",
                    help="also drop error/timeout records so those runs retry")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be dropped without rewriting")

    stream = subparsers.add_parser(
        "stream", help="replay a JSONL delta stream with incremental propagation"
    )
    _add_estimation_arguments(stream)
    stream.add_argument("events", nargs="?", default=None,
                        help="JSONL event file (one GraphDelta per line); "
                             "omitted: synthesize a stream by replaying the "
                             "graph's own edges as insertion deltas")
    stream.add_argument("--from-store", dest="from_store", metavar="STORE",
                        default=None,
                        help="treat GRAPH as a record hash (prefixes ok) in "
                             "this runner result store and rebuild that "
                             "run's graph instead of reading an .npz file")
    stream.add_argument("--synth-events", type=int, default=20, metavar="N",
                        help="events to synthesize when no event file is "
                             "given (default 20)")
    stream.add_argument("--synth-initial", type=float, default=0.5,
                        metavar="F",
                        help="fraction of edges in the synthesized stream's "
                             "starting graph (default 0.5)")
    stream.add_argument("--iterations", type=int, default=300,
                        help="fixed-point sweep cap (default 300: streaming "
                             "needs converged solves, not the paper's 10)")
    stream.add_argument("--tolerance", type=float, default=1e-8,
                        help="fixed-point convergence tolerance")
    stream.add_argument("--verify-every", type=int, default=0, metavar="N",
                        help="every N steps, run a cold batch re-solve and "
                             "record wall time + max belief deviation")
    stream.add_argument("--verify-tolerance", type=float, default=1e-6,
                        help="fail (exit 1) when a verified deviation "
                             "exceeds this bound")
    stream.add_argument("--localized", action="store_true",
                        help="opt small deltas into the residual-push "
                             "localized solver (iterates only the "
                             "delta-affected frontier)")
    stream.add_argument("--lenient", action="store_true",
                        help="tolerate duplicate edge insertions (weights "
                             "sum) and removals of absent edges (no-ops)")
    stream.add_argument("--no-score", action="store_true",
                        help="skip per-step accuracy scoring")
    stream.add_argument("--json", help="write the replay report to this JSON file")
    stream.add_argument("--trace", default=None, metavar="FILE",
                        help="append obs trace spans (JSONL) to this file; "
                             "summarize with `repro stats FILE`")
    stream.add_argument("--quiet", action="store_true",
                        help="suppress per-step progress lines")

    serve = subparsers.add_parser(
        "serve", help="serve label-belief queries over HTTP with micro-batching"
    )
    serve.add_argument("graph", nargs="?", default=None,
                       help="graph to preload: an .npz path, or a record "
                            "hash with --from-store (more graphs can be "
                            "loaded later via POST /graphs)")
    serve.add_argument("--name", default="default",
                       help="name the preloaded graph is served under")
    serve.add_argument("--from-store", dest="from_store", metavar="STORE",
                       default=None,
                       help="load the preloaded graph from this runner "
                            "result store (GRAPH is then a record hash)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8151)
    serve.add_argument("--method", default="GS",
                       help="compatibility estimator for the preloaded graph")
    serve.add_argument("--fraction", type=float, default=0.05,
                       help="fraction of labels revealed as seeds")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--iterations", type=int, default=300,
                       help="fixed-point sweep cap (serving needs converged "
                            "solves)")
    serve.add_argument("--tolerance", type=float, default=1e-8)
    serve.add_argument("--localized", action="store_true",
                       help="opt the preloaded graph's session into "
                            "residual-push localized solves for small deltas")
    serve.add_argument("--max-batch", type=int, default=128, dest="max_batch",
                       help="flush a micro-batch once this many requests wait")
    serve.add_argument("--max-latency", type=float, default=0.002,
                       dest="max_latency", metavar="SECONDS",
                       help="flush a micro-batch at the latest this long "
                            "after its oldest request arrived")
    serve.add_argument("--no-batching", action="store_true",
                       help="answer every request individually (debugging / "
                            "baseline measurements)")
    serve.add_argument("--lenient", action="store_true",
                       help="tolerate duplicate edge adds / absent removals "
                            "in served deltas")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="append obs trace spans (JSONL) to this file; "
                            "each response's X-Repro-Trace header names its "
                            "request tree")
    serve.add_argument("--log-json", action="store_true", dest="log_json",
                       help="emit one JSON object per request to stderr "
                            "(method, path, status, duration_ms, trace), "
                            "plus one per SLO alert transition with --slo")
    serve.add_argument("--trace-sample", type=float, default=None,
                       dest="trace_sample", metavar="P",
                       help="head-sample traces: keep this fraction of "
                            "request trees (decided per trace id; spans "
                            "slower than REPRO_TRACE_SLOW_MS are always "
                            "kept)")
    serve.add_argument("--slo", default=None, metavar="FILE",
                       help="JSON SLO spec (see repro.obs.slo); rules are "
                            "evaluated continuously, degrade /healthz to "
                            "503 while firing, and are listed on /alerts")
    serve.add_argument("--slo-interval", type=float, default=1.0,
                       dest="slo_interval", metavar="SECONDS",
                       help="SLO recorder sampling period (default 1s)")
    serve.add_argument("--workers", type=int, default=0,
                       help="run as a router fronting N worker processes; "
                            "sessions are placed by name hash and requests "
                            "proxied to the owning worker (0 = single "
                            "process, the default)")
    serve.add_argument("--max-sessions", type=int, default=None,
                       dest="max_sessions", metavar="N",
                       help="LRU-evict least-recently-used sessions beyond "
                            "this bound; evicted sessions reload "
                            "transparently on next touch")
    serve.add_argument("--queue-dir", default=None, dest="queue_dir",
                       metavar="DIR",
                       help="durable per-session delta queue directory; "
                            "acked deltas are replayed from it after a "
                            "crash or eviction (router mode shares one "
                            "directory across all workers)")
    serve.add_argument("--port-file", default=None, dest="port_file",
                       metavar="FILE",
                       help="write the bound port to this file once "
                            "listening (for --port 0 and supervisors)")

    top = subparsers.add_parser(
        "top", help="live terminal dashboard over serve /metrics endpoints"
    )
    top.add_argument("endpoints", nargs="*",
                     help="one or more /metrics endpoints: full URLs, "
                          "host:port, or :port (localhost implied); several "
                          "endpoints federate under an 'instance' label")
    top.add_argument("--router", default=None, metavar="URL",
                     help="discover worker /metrics endpoints from a "
                          "router's /fleet listing instead of naming them "
                          "explicitly")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh/sampling period in seconds (default 1)")
    top.add_argument("--window", type=float, default=60.0,
                     help="rate/quantile window in seconds (default 60)")
    top.add_argument("--timeout", type=float, default=2.0,
                     help="per-endpoint scrape timeout in seconds")
    top.add_argument("--once", action="store_true",
                     help="sample twice (one interval apart), print one "
                          "summary, and exit — for scripts and CI")
    top.add_argument("--json", action="store_true", dest="as_json",
                     help="with --once: print the summary as JSON")

    stats = subparsers.add_parser(
        "stats", help="summarize a trace file written by --trace"
    )
    stats.add_argument("trace", help="JSONL trace file (from `repro stream "
                                     "--trace` or `repro serve --trace`)")
    stats.add_argument("--slowest", type=int, default=1, metavar="N",
                       help="render the N slowest root traces as trees "
                            "(default 1; 0 disables)")
    stats.add_argument("--trace-id", default=None, dest="trace_id",
                       metavar="ID",
                       help="render exactly this trace's span tree (unique "
                            "prefixes ok — the X-Repro-Trace header value)")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="print the per-span summary as JSON instead of "
                            "a table")

    subparsers.add_parser(
        "list", help="print the registered propagators and estimators"
    )
    return parser


def _add_estimation_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("graph", help="input .npz path")
    subparser.add_argument("--method", default="DCEr",
                           help="estimator name (see `repro list`)")
    subparser.add_argument("--fraction", type=float, default=0.01,
                           help="fraction of labels revealed as seeds")
    subparser.add_argument("--max-length", type=int, default=5, dest="max_length")
    subparser.add_argument("--scaling", type=float, default=10.0,
                           help="DCE weight scaling factor lambda")
    subparser.add_argument("--restarts", type=int, default=10)
    subparser.add_argument("--seed", type=int, default=0)


# ------------------------------------------------------------------ resolvers
def _resolve_estimator(args: argparse.Namespace):
    """Build the selected estimator or fail with the valid names listed."""
    if args.method not in ESTIMATORS:
        raise CLIError(
            f"unknown estimator {args.method!r}; valid methods: "
            f"{', '.join(sorted(ESTIMATORS))}"
        )
    return ESTIMATORS[args.method](args)


def _check_propagator(name: str) -> str:
    if name not in PROPAGATORS:
        raise CLIError(
            f"unknown propagator {name!r}; valid propagators: "
            f"{', '.join(propagator_names())}"
        )
    return name


def _load_graph(path) -> "object":
    """Load a graph bundle or fail with a clean one-line error."""
    path = Path(path)
    if not path.exists():
        raise CLIError(f"graph file not found: {path}")
    try:
        return load_graph_npz(path)
    except Exception as exc:
        raise CLIError(f"could not read graph file {path}: {exc}") from exc


def _open_store(path, backend: str | None = None, must_exist: bool = True) -> ResultStore:
    """Open a result store (either backend) or fail with a clean error."""
    path = Path(path)
    if must_exist and not path.exists():
        raise CLIError(f"result store not found: {path}")
    try:
        return ResultStore(path, backend=backend)
    except (StoreCorruptionError, ValueError) as exc:
        # ValueError: backend/path-shape mismatch (e.g. --backend jsonl
        # pointed at a regular file) or an unknown backend name.
        raise CLIError(str(exc)) from exc


def _parse_shard(value: str | None) -> tuple[int, int] | None:
    """Parse ``--shard I/N`` into ``(index, n_shards)``."""
    if value is None:
        return None
    parts = value.split("/")
    try:
        index, n_shards = (int(part) for part in parts)
    except ValueError:
        raise CLIError(
            f"--shard must look like I/N (e.g. 0/2), got {value!r}"
        ) from None
    if n_shards < 1 or not 0 <= index < n_shards:
        raise CLIError(
            f"--shard index must satisfy 0 <= I < N, got {value!r}"
        )
    return index, n_shards


def _configure_trace(path: str | None) -> None:
    """Route obs spans for the rest of the process to a JSONL file."""
    if not path:
        return
    from repro import obs

    try:
        obs.configure_tracing(obs.JsonlTraceSink(path))
    except OSError as exc:
        raise CLIError(f"could not open trace file {path}: {exc}") from exc
    print(f"tracing spans to {path}")


# ------------------------------------------------------------------- commands
def _command_generate(args: argparse.Namespace) -> int:
    if args.homophily:
        compatibility = homophily_compatibility(args.classes, h=args.skew)
    else:
        compatibility = skew_compatibility(args.classes, h=args.skew)
    graph = generate_graph(
        args.nodes,
        args.edges,
        compatibility,
        distribution=args.distribution,
        seed=args.seed,
        name="cli-synthetic",
    )
    save_graph_npz(graph, args.output)
    print(f"wrote {graph.n_nodes} nodes / {graph.n_edges} edges to {args.output}")
    return 0


def _command_dataset(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    save_graph_npz(graph, args.output)
    print(f"wrote {args.name} stand-in ({graph.n_nodes} nodes / {graph.n_edges} edges) "
          f"to {args.output}")
    return 0


def _command_summary(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    summary = graph_summary(graph)
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"{key}: {value:.4f}")
        else:
            print(f"{key}: {value}")
    return 0


def _command_estimate(args: argparse.Namespace) -> int:
    estimator = _resolve_estimator(args)
    graph = _load_graph(args.graph)
    seed_labels = stratified_seed_labels(
        graph.require_labels(), fraction=args.fraction, rng=args.seed
    )
    result = estimator.fit(graph, seed_labels)
    details = result.details
    print(f"method: {result.method}")
    print(f"estimation time: {result.elapsed_seconds:.3f}s")
    if "n_evaluations" in details:
        print(f"estimation split: statistics {details['summarization_seconds']:.3f}s, "
              f"optimizer {details['optimization_seconds']:.3f}s "
              f"({details['n_restarts']} restarts, "
              f"{details['n_evaluations']} energy evaluations)")
    print("estimated compatibility matrix:")
    for row in np.round(result.compatibility, 4):
        print("  " + "  ".join(f"{value:7.4f}" for value in row))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    estimator = _resolve_estimator(args)
    _check_propagator(args.propagator)
    graph = _load_graph(args.graph)
    result = run_experiment(
        graph,
        estimator,
        label_fraction=args.fraction,
        n_propagation_iterations=args.iterations,
        seed=args.seed,
        propagator=args.propagator,
    )
    print(f"method: {result.method}")
    print(f"propagator: {result.propagator} "
          f"({result.propagation_iterations} sweeps, "
          f"{'converged' if result.propagation_converged else 'not converged'})")
    print(f"seeds: {result.n_seeds} ({result.label_fraction:.2%} of nodes)")
    print(f"macro accuracy: {result.accuracy:.4f}")
    print(f"L2 distance to gold standard: {result.l2_to_gold:.4f}")
    print(f"estimation time: {result.estimation_seconds:.3f}s, "
          f"propagation time: {result.propagation_seconds:.3f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(experiment_to_dict(result), handle, indent=2)
        print(f"wrote result record to {args.json}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise CLIError(f"grid spec file not found: {spec_path}")
    try:
        grid = GridSpec.from_json(spec_path)
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CLIError(f"invalid grid spec {spec_path}: {exc}") from exc

    shard = _parse_shard(args.shard)
    store_path = args.store or os.path.join("runs", grid.name)
    store = _open_store(store_path, backend=args.backend, must_exist=False)
    if args.serial:
        n_workers = 1
    elif args.workers is not None:
        if args.workers < 1:
            raise CLIError("--workers must be >= 1")
        n_workers = args.workers
    else:
        n_workers = min(4, os.cpu_count() or 1)

    if shard is None:
        runs = grid.expand()
        scope = f"{grid.n_runs} runs"
    else:
        index, n_shards = shard
        runs = grid.shard(index, n_shards)
        scope = f"shard {index}/{n_shards}: {len(runs)} of {grid.n_runs} runs"
    print(f"grid {grid.name!r}: {scope} -> {store.results_path} "
          f"[{store.backend_name}] "
          f"({n_workers} worker{'s' if n_workers != 1 else ''})")
    progress = ProgressPrinter(len(runs), enabled=not args.quiet)
    report = execute_grid(
        runs,
        store=store,
        n_workers=n_workers,
        timeout=args.timeout,
        force=args.force,
        progress=progress,
    )
    print(summarize_report(report))
    print(f"store: {store.results_path} ({len(store)} records), "
          f"manifest: {store.manifest_path}")
    return 1 if report.n_errors else 0


def _command_report(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if len(store) == 0:
        raise CLIError(f"result store {args.store} is empty")
    print(render_store_report(store, metric=args.metric))
    return 0


def _command_merge(args: argparse.Namespace) -> int:
    sources = [_open_store(path) for path in args.sources]
    destination = _open_store(args.destination, backend=args.backend,
                              must_exist=False)
    stats = merge_stores(destination, sources)
    print(f"merged {stats['n_sources']} store(s) into "
          f"{destination.results_path} [{destination.backend_name}]: "
          f"{stats['n_added']} added, {stats['n_identical']} identical, "
          f"{stats['n_conflicts']} conflict(s) overwritten "
          f"({len(destination)} records total)")
    for conflict in stats["conflicts"]:
        print(f"  conflict {conflict['hash'][:16]}…: "
              f"{conflict['old_status']} -> {conflict['new_status']}")
    return 0


def _command_gc(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if args.dry_run:
        n_physical = store.n_physical_records()
        n_failed = sum(
            1 for record in store.records() if record.get("status") != "ok"
        ) if args.drop_failed else 0
        print(f"{args.store}: {n_physical} stored records, {len(store)} live; "
              f"compaction would drop {n_physical - len(store)} superseded "
              f"and {n_failed} failed records")
        return 0
    stats = store.compact(drop_failed=args.drop_failed)
    print(f"compacted {args.store}: kept {stats['n_kept']} of "
          f"{stats['n_lines_before']} records "
          f"({stats['n_dropped_superseded']} superseded, "
          f"{stats['n_dropped_failed']} failed dropped); manifest rewritten")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from repro.eval.seeding import stratified_seed_indices
    from repro.stream import read_delta_stream, replay_events, synthesize_delta_stream

    _configure_trace(args.trace)
    if args.from_store:
        # GRAPH is a record hash: rebuild the graph that run executed on,
        # through the same loader the serving layer uses.
        from repro.serve.loader import GraphSourceError, graph_from_store

        try:
            graph, record = graph_from_store(args.from_store, args.graph)
        except GraphSourceError as exc:
            raise CLIError(str(exc)) from exc
        print(f"rebuilt graph of record {record['hash'][:16]}… from "
              f"{args.from_store} ({graph.n_nodes} nodes / {graph.n_edges} edges)")
    else:
        graph = _load_graph(args.graph)

    if args.events is not None:
        events_path = Path(args.events)
        if not events_path.exists():
            raise CLIError(f"event file not found: {events_path}")
        try:
            deltas = read_delta_stream(events_path)
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        if not deltas:
            raise CLIError(f"event file {events_path} contains no deltas")
    else:
        # No recorded events: replay the graph itself as a stream of edge
        # insertions (the runner-store ingestion scenario).
        try:
            graph, deltas = synthesize_delta_stream(
                graph,
                n_events=args.synth_events,
                initial_fraction=args.synth_initial,
                seed=args.seed,
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        print(f"synthesized {len(deltas)} insertion events from the graph "
              f"(starting from {graph.n_edges} of its edges)")

    if graph.labels is None:
        raise CLIError(
            f"graph {args.graph} carries no ground-truth labels; streaming "
            "replay needs them for seeding and scoring"
        )
    seed_indices = stratified_seed_indices(
        graph.require_labels(), fraction=args.fraction, rng=args.seed
    )
    seed_labels = graph.partial_labels(seed_indices)

    estimation = _resolve_estimator(args).fit(graph, seed_labels)
    print(f"estimated compatibility with {estimation.method} "
          f"({estimation.elapsed_seconds:.3f}s)")

    report = replay_events(
        graph,
        deltas,
        LinBPPropagator(max_iterations=args.iterations, tolerance=args.tolerance),
        compatibility=estimation.compatibility,
        seed_labels=seed_labels,
        verify_every=args.verify_every,
        score=not args.no_score,
        strict=not args.lenient,
        localized=args.localized,
    )
    if not args.quiet:
        for record in report.steps:
            line = (f"step {record.step:3d}: {record.delta:<42s} "
                    f"{record.mode:<11s} {record.total_seconds * 1e3:8.1f} ms")
            if record.accuracy is not None:
                line += f"  acc {record.accuracy:.4f}"
            if record.deviation is not None:
                line += (f"  [full {record.full_seconds * 1e3:.1f} ms, "
                         f"dev {record.deviation:.1e}]")
            print(line)

    print(f"{len(report.steps)} steps: {report.n_incremental} incremental, "
          f"{report.n_localized} localized, {report.n_full} full")
    print(f"touched nonzeros (cumulative): {report.total_touched_nnz:,}")
    if report.final_accuracy is not None:
        print(f"final accuracy: {report.final_accuracy:.4f}")
    if report.mean_seconds("incremental") is not None:
        print(f"mean incremental step: "
              f"{report.mean_seconds('incremental') * 1e3:.1f} ms")
    if report.mean_seconds("localized") is not None:
        print(f"mean localized step: "
              f"{report.mean_seconds('localized') * 1e3:.1f} ms")
    if report.verified_speedup is not None:
        print(f"verified full re-solve speedup: {report.verified_speedup:.2f}x")
    if report.max_deviation is not None:
        print(f"max verified deviation: {report.max_deviation:.2e}")
    quality = report.quality or {}
    prequential = quality.get("prequential") or {}
    if prequential.get("scored"):
        drift = (quality.get("drift") or {}).get("value")
        churn = quality.get("churn") or {}
        print(f"prequential accuracy: {prequential['accuracy']:.4f} "
              f"({prequential['scored']} reveals scored)")
        print(f"belief churn: {churn.get('flips_total', 0)} argmax flips"
              + (f"; compatibility drift: {drift:.4f}" if drift is not None else ""))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote replay report to {args.json}")

    if report.max_deviation is not None and report.max_deviation > args.verify_tolerance:
        print(f"repro: error: incremental beliefs deviate from the batch "
              f"re-solve by {report.max_deviation:.2e} "
              f"(> {args.verify_tolerance:g})", file=sys.stderr)
        return 1
    return 0


def _make_slo_recorder(args: argparse.Namespace, service) -> "object | None":
    """Build the recorder+SLO stack for ``repro serve --slo`` (or None)."""
    if not args.slo:
        return None
    from repro import obs

    slo_path = Path(args.slo)
    if not slo_path.exists():
        raise CLIError(f"SLO spec file not found: {slo_path}")
    try:
        spec = obs.SloSpec.from_json(slo_path)
    except obs.SloSpecError as exc:
        raise CLIError(str(exc)) from exc
    if args.slo_interval <= 0:
        raise CLIError("--slo-interval must be > 0")
    registries = [service.registry]
    if obs.metrics() is not service.registry:
        registries.append(obs.metrics())
    recorder = obs.TimeSeriesRecorder(
        obs.registry_source(registries), interval_seconds=args.slo_interval
    )
    recorder.attach_slo(spec)

    def on_alert(status, firing: bool) -> None:
        if args.log_json:
            line = json.dumps(
                {"event": "slo_alert", **status.to_dict()},
                separators=(",", ":"),
            )
        else:
            verb = "FIRING" if firing else "resolved"
            line = f"alert {status.name} {verb}: {status.detail}"
        print(line, file=sys.stderr, flush=True)

    recorder.on_alert = on_alert
    print(f"SLO spec {slo_path}: {len(spec.rules)} rule(s), "
          f"sampled every {args.slo_interval:g}s")
    return recorder


def _write_port_file(path: str | None, port: int) -> None:
    """Publish the bound port for ``--port 0`` supervisors (router, tests)."""
    if path:
        Path(path).write_text(f"{port}\n")


def _serve_router(args: argparse.Namespace) -> int:
    """``repro serve --workers N``: router + supervised worker pool."""
    from repro.serve import ServeError
    from repro.serve.router import Router, make_router_server

    worker_args = [
        "--max-batch", str(args.max_batch),
        "--max-latency", str(args.max_latency),
    ]
    if args.lenient:
        worker_args.append("--lenient")
    if args.no_batching:
        worker_args.append("--no-batching")
    if args.max_sessions is not None:
        worker_args += ["--max-sessions", str(args.max_sessions)]
    if args.slo:
        # Each worker runs the spec against its own recorder; the router's
        # /healthz aggregation surfaces any worker's firing rules.
        slo_path = Path(args.slo)
        if not slo_path.exists():
            raise CLIError(f"SLO spec file not found: {slo_path}")
        worker_args += ["--slo", str(slo_path),
                        "--slo-interval", str(args.slo_interval)]
    router = Router(
        args.workers,
        host=args.host,
        queue_dir=args.queue_dir,
        worker_args=worker_args,
    )
    # SIGTERM takes the Ctrl-C path, so the finally below stops the workers
    # instead of orphaning them.
    signal.signal(signal.SIGTERM, _raise_interrupt)
    server = None
    try:
        try:
            router.start()
        except ServeError as exc:
            raise CLIError(str(exc)) from exc
        print(f"spawned {args.workers} worker(s): "
              + ", ".join(h.url for h in router.workers))
        if args.graph is not None:
            payload = {
                "name": args.name,
                "method": args.method,
                "fraction": args.fraction,
                "seed": args.seed,
                "iterations": args.iterations,
                "tolerance": args.tolerance,
                "localized": args.localized,
            }
            if args.from_store:
                payload["store"] = args.from_store
                payload["hash"] = args.graph
            else:
                if not Path(args.graph).exists():
                    raise CLIError(f"graph file not found: {args.graph}")
                payload["path"] = args.graph
            status, body, _ = router.handle_load(payload)
            if status != 201:
                raise CLIError(f"preload failed ({status}): "
                               f"{body.decode('utf-8', 'replace')}")
            owner = router.place(args.name)
            print(f"loaded {args.name!r} on worker {owner}")
        elif args.from_store:
            raise CLIError("--from-store needs a record hash as the GRAPH argument")
        try:
            server = make_router_server(
                router, host=args.host, port=args.port, log_json=args.log_json
            )
        except OSError as exc:
            raise CLIError(f"could not bind {args.host}:{args.port}: {exc}") from exc
        _write_port_file(args.port_file, server.server_address[1])
        print(f"routing on http://{args.host}:{server.server_address[1]} "
              f"[{args.workers} worker(s), placement by session name] — "
              f"Ctrl-C to stop")
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down fleet")
    finally:
        if server is not None:
            server.server_close()
        router.close()
    return 0


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import InferenceService, MicroBatcher, ServeError, make_server

    if args.workers < 0:
        raise CLIError("--workers must be >= 0")
    if args.max_sessions is not None and args.max_sessions < 1:
        raise CLIError("--max-sessions must be >= 1")
    if args.workers:
        return _serve_router(args)
    _configure_trace(args.trace)
    if args.trace_sample is not None:
        if not 0.0 <= args.trace_sample <= 1.0:
            raise CLIError("--trace-sample must be in [0, 1]")
        from repro import obs

        obs.configure_sampling(probability=args.trace_sample)
        print(f"head-sampling traces at p={args.trace_sample:g} "
              f"(slow spans always kept)")
    service = InferenceService(
        strict_deltas=not args.lenient,
        max_sessions=args.max_sessions,
        queue_dir=args.queue_dir,
    )
    if args.graph is not None:
        load_kwargs = dict(
            method=args.method,
            fraction=args.fraction,
            seed=args.seed,
            iterations=args.iterations,
            tolerance=args.tolerance,
            localized=args.localized,
        )
        try:
            if args.from_store:
                info = service.load_graph(
                    args.name, store=args.from_store, run_hash=args.graph,
                    **load_kwargs,
                )
            else:
                if not Path(args.graph).exists():
                    raise CLIError(f"graph file not found: {args.graph}")
                info = service.load_graph(args.name, path=args.graph, **load_kwargs)
        except ServeError as exc:
            raise CLIError(str(exc)) from exc
        print(f"loaded {args.name!r}: {info['n_nodes']} nodes / "
              f"{info['n_edges']} edges, propagator {info['propagator']}, "
              f"{info['n_seeds']} seeds")
    elif args.from_store:
        raise CLIError("--from-store needs a record hash as the GRAPH argument")

    recorder = _make_slo_recorder(args, service)
    batcher = None
    if not args.no_batching:
        batcher = MicroBatcher(
            service,
            max_batch=args.max_batch,
            max_latency_seconds=args.max_latency,
        )
    try:
        server = make_server(
            service, host=args.host, port=args.port, batcher=batcher,
            log_json=args.log_json, recorder=recorder,
        )
    except OSError as exc:
        if batcher is not None:
            batcher.close()
        raise CLIError(f"could not bind {args.host}:{args.port}: {exc}") from exc
    if recorder is not None:
        recorder.start()
    _write_port_file(args.port_file, server.server_address[1])
    mode = "unbatched" if batcher is None else (
        f"micro-batched (<= {args.max_batch}/flush, "
        f"{args.max_latency * 1e3:g} ms budget)"
    )
    print(f"serving on http://{args.host}:{server.server_address[1]} "
          f"[{mode}] — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _discover_fleet(router: str, timeout: float) -> list[str]:
    """Worker /metrics endpoints from a router's ``/fleet`` listing."""
    import urllib.error
    import urllib.request

    from repro.obs.scrape import normalize_endpoint

    try:
        _, url = normalize_endpoint(router)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    url = url.rsplit("/", 1)[0] + "/fleet"  # normalize appends /metrics
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            fleet = json.loads(response.read().decode("utf-8"))
    except (OSError, urllib.error.URLError, json.JSONDecodeError) as exc:
        raise CLIError(f"could not read fleet listing from {url}: {exc}") from exc
    endpoints = [
        worker["metrics_url"]
        for worker in fleet.get("workers", [])
        if worker.get("metrics_url")
    ]
    if not endpoints:
        raise CLIError(f"router at {url} reports no workers with metrics")
    return endpoints


def _command_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs import top as obs_top

    if args.as_json and not args.once:
        raise CLIError("--json needs --once (one machine-readable summary)")
    if args.interval <= 0:
        raise CLIError("--interval must be > 0")
    if args.router:
        if args.endpoints:
            raise CLIError("give explicit endpoints or --router, not both")
        endpoints = _discover_fleet(args.router, timeout=args.timeout)
    elif args.endpoints:
        endpoints = args.endpoints
    else:
        raise CLIError("repro top needs /metrics endpoints or --router URL")
    try:
        client = obs_top.TopClient(
            endpoints,
            interval_seconds=args.interval,
            window_seconds=args.window,
            timeout=args.timeout,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if args.once:
        # Rates need two edge samples, one interval apart.
        client.poll()
        time.sleep(args.interval)
        client.poll()
        summary = client.summary()
        if args.as_json:
            print(json.dumps(summary, indent=2))
        else:
            print(obs_top.render(client), end="")
        return 0 if summary["instances_up"] else 1
    try:
        while True:
            client.poll()
            sys.stdout.write("\x1b[2J\x1b[H" + obs_top.render(client))
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceReadError,
        read_trace,
        render_trace_report,
        render_trace_tree,
        summarize_spans,
    )

    path = Path(args.trace)
    if not path.exists():
        raise CLIError(f"trace file not found: {path}")
    try:
        records = read_trace(path)
    except TraceReadError as exc:
        raise CLIError(str(exc)) from exc
    if not records:
        raise CLIError(f"trace file {path} contains no spans")
    if args.trace_id:
        try:
            print(render_trace_tree(records, args.trace_id), end="")
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        return 0
    if args.as_json:
        print(json.dumps(summarize_spans(records), indent=2))
    else:
        print(render_trace_report(records, slowest=args.slowest), end="")
    return 0


def _first_docstring_line(obj) -> str:
    docstring = (obj.__doc__ or "").strip()
    return docstring.splitlines()[0] if docstring else "(no docstring)"


def _command_list(args: argparse.Namespace) -> int:
    width = max(
        (len(name) for name in list(PROPAGATORS) + list(ESTIMATOR_REGISTRY)),
        default=0,
    )
    print("propagators:")
    for name in sorted(PROPAGATORS):
        print(f"  {name:<{width}}  {_first_docstring_line(PROPAGATORS[name])}")
    print("estimators:")
    for name in sorted(ESTIMATOR_REGISTRY):
        print(f"  {name:<{width}}  {_first_docstring_line(ESTIMATOR_REGISTRY[name])}")
    return 0


COMMANDS = {
    "generate": _command_generate,
    "dataset": _command_dataset,
    "summary": _command_summary,
    "estimate": _command_estimate,
    "experiment": _command_experiment,
    "run": _command_run,
    "report": _command_report,
    "merge": _command_merge,
    "gc": _command_gc,
    "stream": _command_stream,
    "serve": _command_serve,
    "top": _command_top,
    "stats": _command_stats,
    "list": _command_list,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CLIError, StoreCorruptionError) as error:
        # StoreCorruptionError can surface after a store was opened cleanly
        # (write_manifest/compact re-read the backend, which a sibling
        # writer's crash may have damaged meanwhile) — same clean one-line
        # contract as corruption detected at open time.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())

"""Parallel experiment executor: fan runs out over worker processes.

The executor turns a list of :class:`~repro.runner.spec.RunSpec` points into
result records, as fast as the hardware allows:

* **Batching by graph config** — runs are grouped by
  :attr:`~repro.runner.spec.RunSpec.graph_hash`; a worker builds each batch's
  graph once and reuses its cached operator layer (normalizations, spectral
  radius) across every run in the batch, so the per-run setup cost is paid
  per graph, not per point.
* **Skip-if-cached** — runs whose hash already has an ``ok`` record in the
  :class:`~repro.runner.store.ResultStore` are never re-executed; failed and
  timed-out runs are retried (pass ``force=True`` to re-execute everything).
* **Determinism** — every run's RNG seed derives from its content hash and
  estimators that accept a ``seed`` are seeded the same way, so the parallel
  schedule produces bitwise-identical result payloads to a serial execution.
* **Isolation** — a run that raises is captured as an ``error`` record with
  its traceback; a run exceeding ``timeout`` seconds is captured as a
  ``timeout`` record.  Neither takes down the grid.

``n_workers <= 1`` runs everything in-process through the *same* batch code
path — the serial fallback is not a separate implementation that could
drift.  The sweep functions in :mod:`repro.eval.sweeps` reuse the batch
machinery through :func:`run_experiment_batches`.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.eval.experiment import ExperimentResult, run_experiment
from repro.graph.graph import Graph
from repro.propagation.engine import ESTIMATORS
from repro.runner.spec import GridSpec, RunSpec, build_graph
from repro.runner.store import ResultStore

__all__ = [
    "RunOutcome",
    "ExecutionReport",
    "chunk_evenly",
    "execute_grid",
    "run_experiment_batches",
    "RunTimeoutError",
    "TimeoutUnsupportedError",
]


def chunk_evenly(items: list, n_chunks: int) -> list[list]:
    """Split a list into at most ``n_chunks`` contiguous, near-equal chunks.

    An empty list yields no chunks (not one empty chunk); the single
    chunking helper shared by the grid batcher and the sweep port.
    """
    if not items:
        return []
    n_chunks = max(1, min(n_chunks, len(items)))
    chunk_size = -(-len(items) // n_chunks)  # ceil division
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


class RunTimeoutError(Exception):
    """Raised inside a worker when a single run exceeds its time budget."""


class TimeoutUnsupportedError(RuntimeError):
    """A per-run timeout was requested where SIGALRM cannot enforce it.

    Deliberately NOT captured as a per-run ``error`` record: it is a usage
    error of the whole execution, not a property of one run, and silently
    recording every run as failed would bury it.
    """


def _call_with_timeout(function: Callable, timeout: float | None):
    """Call ``function()`` under a SIGALRM-based wall-clock budget.

    Falls back to an unbounded call when no timeout is requested or the
    platform lacks ``SIGALRM`` (nothing to enforce it with).  A timeout
    requested off the main thread raises immediately: signal handlers can
    only be installed on the main thread, and silently running without the
    budget would let a hung run stall the whole grid.

    The previous handler and itimer are restored on *every* exit path —
    normal return, the run raising, or the timeout firing — with the timer
    cleared before the handler is swapped back so a pending alarm can
    never reach the caller's old handler.
    """
    if not timeout:
        return function()
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - POSIX-only gap
        return function()
    if threading.current_thread() is not threading.main_thread():
        raise TimeoutUnsupportedError(
            "per-run timeouts use SIGALRM, which Python only allows on the "
            "main thread; call execute_grid from the main thread, use "
            "n_workers > 1 (workers run on their own main threads), or "
            "pass timeout=None"
        )

    def _alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded the {timeout:g}s budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return function()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------------ outcomes
@dataclass
class RunOutcome:
    """Result of one run: the spec plus what happened when it executed.

    ``result`` holds only deterministic fields (accuracy, L2, matrix,
    iteration counts ...), ``timing`` the wall-clock measurements — kept
    apart so parallel and serial executions of the same spec produce
    byte-identical ``result`` payloads and the equality is testable.
    """

    spec: RunSpec
    status: str  # "ok" | "error" | "timeout" | "cached"
    result: dict | None = None
    timing: dict = field(default_factory=dict)
    error: str | None = None
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def to_record(self) -> dict:
        """The JSON record persisted in the result store."""
        return {
            "hash": self.spec.content_hash,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "result": self.result,
            "timing": self.timing,
            "error": self.error,
            "worker_pid": self.worker_pid,
        }

    @classmethod
    def from_record(cls, record: dict, status: str | None = None) -> "RunOutcome":
        return cls(
            spec=RunSpec.from_dict(record["spec"]),
            status=status or record.get("status", "unknown"),
            result=record.get("result"),
            timing=record.get("timing", {}),
            error=record.get("error"),
            worker_pid=int(record.get("worker_pid", 0)),
        )


@dataclass
class ExecutionReport:
    """Summary of one :func:`execute_grid` call."""

    outcomes: list[RunOutcome]
    n_cached: int
    n_executed: int
    n_errors: int
    n_workers: int
    elapsed_seconds: float

    @property
    def n_total(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requested runs served from the store."""
        return self.n_cached / self.n_total if self.n_total else 0.0


# ----------------------------------------------------------- run one / batch
def _build_estimator(spec: RunSpec):
    """Instantiate the spec's estimator, seeding it from the run seed.

    When the estimator class accepts a ``seed`` argument and the spec's
    kwargs do not pin one, the hash-derived run seed is used — randomized
    estimators (DCEr restarts, Holdout splits) then behave identically
    regardless of which worker executes the run.
    """
    cls = ESTIMATORS[spec.estimator]
    kwargs = dict(spec.estimator_kwargs)
    accepted = inspect.signature(cls.__init__).parameters
    if "seed" in accepted and "seed" not in kwargs:
        kwargs["seed"] = spec.run_seed
    return cls(**kwargs)


def _result_payload(record: ExperimentResult) -> tuple[dict, dict]:
    """Split an experiment record into (deterministic, timing) dictionaries."""
    deterministic = {
        "method": record.method,
        "label_fraction": record.label_fraction,
        "n_seeds": record.n_seeds,
        "accuracy": record.accuracy,
        "l2_to_gold": record.l2_to_gold,
        "compatibility": np.asarray(record.compatibility).tolist(),
        "propagator": record.propagator,
        "propagation_iterations": record.propagation_iterations,
        "propagation_converged": record.propagation_converged,
    }
    timing = {
        "estimation_seconds": record.estimation_seconds,
        "propagation_seconds": record.propagation_seconds,
    }
    return deterministic, timing


def _record_run_metrics(outcome: RunOutcome) -> None:
    """Tally one run on the metrics registry (status, wall time)."""
    if not obs.enabled():
        return
    registry = obs.metrics()
    registry.counter(
        "repro_runner_runs_total",
        "Grid runs executed, by outcome status.",
        status=outcome.status,
    ).inc()
    total = outcome.timing.get("total_seconds")
    if total is not None:
        registry.histogram(
            "repro_runner_run_seconds", "End-to-end wall time of one grid run."
        ).observe(total)


def _execute_one(graph: Graph, spec: RunSpec, timeout: float | None) -> RunOutcome:
    """Execute a single spec on an already-built graph, capturing failures."""
    with obs.span(
        "runner.run", run=spec.content_hash[:12], method=spec.estimator
    ):
        outcome = _execute_one_inner(graph, spec, timeout)
    _record_run_metrics(outcome)
    return outcome


def _execute_one_inner(
    graph: Graph, spec: RunSpec, timeout: float | None
) -> RunOutcome:
    started = time.perf_counter()
    try:
        record = _call_with_timeout(
            lambda: run_experiment(
                graph,
                _build_estimator(spec),
                label_fraction=spec.label_fraction,
                seed=spec.run_seed,
                propagator=spec.propagator,
                propagator_kwargs=dict(spec.propagator_kwargs) or None,
                **spec.experiment_kwargs,
            ),
            timeout,
        )
    except RunTimeoutError as exc:
        return RunOutcome(
            spec=spec,
            status="timeout",
            error=str(exc),
            timing={"total_seconds": time.perf_counter() - started},
            worker_pid=os.getpid(),
        )
    except TimeoutUnsupportedError:
        raise  # execution-level usage error, not a per-run failure
    except Exception:
        return RunOutcome(
            spec=spec,
            status="error",
            error=traceback.format_exc(),
            timing={"total_seconds": time.perf_counter() - started},
            worker_pid=os.getpid(),
        )
    result, timing = _result_payload(record)
    timing["total_seconds"] = time.perf_counter() - started
    return RunOutcome(
        spec=spec,
        status="ok",
        result=result,
        timing=timing,
        worker_pid=os.getpid(),
    )


def _execute_batch(batch) -> tuple[int, list[tuple[int, RunOutcome]], dict | None]:
    """Worker entry point: build the batch's graph once, run every spec.

    ``batch`` is ``(batch_index, graph_config, [(run_index, spec), ...],
    timeout)``.  Must stay a module-level function so it pickles for the
    process pool.

    The third element of the return is the batch's metrics delta — a
    :func:`repro.obs.diff_snapshots` of the worker's global registry taken
    around the batch.  Pool workers are separate processes, so their counter
    increments would otherwise vanish with them; the parent merges the delta
    back (only on the pooled path — in-process execution already recorded
    directly on the live registry).
    """
    batch_index, graph_config, indexed_specs, timeout = batch
    before = obs.metrics().snapshot() if obs.enabled() else None

    def _metrics_delta() -> dict | None:
        if before is None:
            return None
        return obs.diff_snapshots(before, obs.metrics().snapshot())

    try:
        graph = build_graph(graph_config)
    except Exception:
        error = traceback.format_exc()
        failed = [
            (
                run_index,
                RunOutcome(
                    spec=spec, status="error", error=error, worker_pid=os.getpid()
                ),
            )
            for run_index, spec in indexed_specs
        ]
        return batch_index, failed, _metrics_delta()
    outcomes = [
        (run_index, _execute_one(graph, spec, timeout))
        for run_index, spec in indexed_specs
    ]
    return batch_index, outcomes, _metrics_delta()


def _pool_context():
    """Prefer fork (cheap, inherits the loaded modules), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _make_batches(
    pending: list[tuple[int, RunSpec]], n_workers: int, timeout: float | None
) -> list[tuple]:
    """Group pending runs by graph config, then split groups across workers.

    Each batch carries one graph config and is built by its worker exactly
    once.  When there are fewer graph configs than workers, groups are split
    into just enough chunks to occupy the pool — a single-graph grid still
    uses every worker, at the cost of rebuilding that graph once per chunk,
    while a grid with >= ``n_workers`` graphs keeps one build per graph.
    """
    groups: dict[str, list[tuple[int, RunSpec]]] = {}
    for run_index, spec in pending:
        groups.setdefault(spec.graph_hash, []).append((run_index, spec))
    batches: list[tuple] = []
    chunks_per_group = max(1, -(-n_workers // max(1, len(groups))))  # ceil
    for group in groups.values():
        graph_config = group[0][1].graph
        for chunk in chunk_evenly(group, chunks_per_group):
            batches.append((len(batches), graph_config, chunk, timeout))
    return batches


# --------------------------------------------------------------- grid runner
def execute_grid(
    grid: GridSpec | Sequence[RunSpec],
    store: ResultStore | None = None,
    n_workers: int = 1,
    timeout: float | None = None,
    force: bool = False,
    progress: Callable[[RunOutcome], None] | None = None,
) -> ExecutionReport:
    """Execute a grid (or an explicit run list), returning every outcome.

    Parameters
    ----------
    grid:
        A :class:`~repro.runner.spec.GridSpec` or a pre-expanded sequence of
        :class:`~repro.runner.spec.RunSpec` (lists from several grids can be
        concatenated into one execution sharing a store).
    store:
        Optional :class:`~repro.runner.store.ResultStore`.  Runs with an
        ``ok`` record are returned as ``cached`` outcomes without executing;
        fresh outcomes are appended as they finish and the manifest is
        rewritten at the end.
    n_workers:
        Worker process count; ``<= 1`` executes serially in-process through
        the same code path.
    timeout:
        Optional per-run wall-clock budget in seconds.
    force:
        Re-execute runs even when the store already holds an ``ok`` record.
    progress:
        Callback invoked once per outcome (cached ones first, then executed
        ones as their batches complete).

    Returns
    -------
    An :class:`ExecutionReport` whose ``outcomes`` follow the expansion
    order of the input, regardless of completion order.
    """
    runs = list(grid.expand() if isinstance(grid, GridSpec) else grid)
    started = time.perf_counter()

    outcomes: list[RunOutcome | None] = [None] * len(runs)
    pending: list[tuple[int, RunSpec]] = []
    n_cached = 0
    for run_index, spec in enumerate(runs):
        record = store.get(spec.content_hash) if store is not None else None
        if record is not None and record.get("status") == "ok" and not force:
            outcome = RunOutcome.from_record(record, status="cached")
            outcomes[run_index] = outcome
            n_cached += 1
            if progress is not None:
                progress(outcome)
        else:
            pending.append((run_index, spec))

    batches = _make_batches(pending, n_workers, timeout)

    def _absorb(batch_result, merge_metrics: bool = False) -> None:
        _, indexed_outcomes, metrics_delta = batch_result
        if merge_metrics and metrics_delta:
            # Pool workers tallied onto their own (forked/spawned) registry
            # copies; fold their deltas into the live one.  The serial path
            # skips this — it already recorded in-process.
            obs.metrics().merge_snapshot(metrics_delta)
        if store is not None:
            # One batched append per finished worker batch: a single locked
            # write instead of one round-trip per run.  Persist before
            # reporting progress so a crash mid-callback never claims more
            # than the store holds.
            store.append_many(
                [outcome.to_record() for _, outcome in indexed_outcomes]
            )
        for run_index, outcome in indexed_outcomes:
            outcomes[run_index] = outcome
            if progress is not None:
                progress(outcome)

    if batches:
        if n_workers > 1:
            context = _pool_context()
            with context.Pool(processes=n_workers) as pool:
                for batch_result in pool.imap_unordered(_execute_batch, batches):
                    _absorb(batch_result, merge_metrics=True)
        else:
            for batch in batches:
                _absorb(_execute_batch(batch))

    if store is not None:
        # A pure cache replay appended nothing, so a manifest that matches
        # the store can be kept as-is, sparing replays the full store
        # re-read that write_manifest's refresh implies.  A missing,
        # unparseable, or stale manifest (e.g. a prior execution crashed
        # after appending but before its manifest write) is regenerated.
        manifest = store.read_manifest() if not pending else None
        if (
            pending
            or manifest is None
            or manifest.get("n_records") != len(store)
            or manifest.get("status_counts") != store.status_counts()
        ):
            store.write_manifest()

    completed = [outcome for outcome in outcomes if outcome is not None]
    n_errors = sum(1 for outcome in completed if outcome.status in ("error", "timeout"))
    return ExecutionReport(
        outcomes=completed,
        n_cached=n_cached,
        n_executed=len(pending),
        n_errors=n_errors,
        n_workers=max(1, n_workers),
        elapsed_seconds=time.perf_counter() - started,
    )


# ------------------------------------------------------------- sweep support
def _execute_sweep_batch(batch) -> list[tuple[int, ExperimentResult]]:
    """Worker entry point for in-memory sweep tasks.

    ``batch`` is ``(graph, [task, ...])`` where each task dict carries its
    original position, the method name, a ready estimator instance, the seed
    and the remaining :func:`run_experiment` keyword arguments.  The graph
    and estimators travel by pickle, so a worker reuses one graph (and its
    cached operator layer) for the whole batch.
    """
    graph, tasks = batch
    results = []
    for task in tasks:
        record = run_experiment(
            graph,
            task["estimator"],
            label_fraction=task["label_fraction"],
            seed=task["seed"],
            **task["kwargs"],
        )
        record.method = task["method"]
        results.append((task["index"], record))
    return results


def run_experiment_batches(
    batches: Iterable[tuple[Graph, list[dict]]], n_workers: int = 1
) -> list[ExperimentResult]:
    """Execute sweep task batches, returning records in task-index order.

    The serial path (``n_workers <= 1``) runs batches in order in-process —
    byte-identical to the historical nested-loop sweeps.  The parallel path
    fans batches out over a process pool and reorders on collection, so the
    caller sees the same record list either way.
    """
    batches = [batch for batch in batches if batch[1]]
    collected: list[tuple[int, ExperimentResult]] = []
    if n_workers > 1 and len(batches) > 1:
        context = _pool_context()
        with context.Pool(processes=n_workers) as pool:
            for results in pool.imap_unordered(_execute_sweep_batch, batches):
                collected.extend(results)
    else:
        for batch in batches:
            collected.extend(_execute_sweep_batch(batch))
    collected.sort(key=lambda pair: pair[0])
    return [record for _, record in collected]

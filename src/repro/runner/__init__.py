"""Parallel experiment orchestration with a content-addressed result store.

The runner subsystem turns the (graph config x estimator x propagator x
label fraction x repetition) grids behind the paper's figures into
declarative, cacheable, parallel executions:

* :mod:`repro.runner.spec` — :class:`RunSpec`/:class:`GridSpec`: declare a
  grid over the registries, expand it into hashed run descriptions.
* :mod:`repro.runner.executor` — :func:`execute_grid`: multiprocessing
  fan-out with per-graph batching, per-run timeouts, error capture and
  hash-derived deterministic RNG (parallel == serial, bitwise).
* :mod:`repro.runner.store` — :class:`ResultStore`: content-hash-keyed
  records in a JSONL directory, giving skip-if-cached resume, safe
  concurrent shard writers, and :func:`merge_stores` unions.
* :mod:`repro.runner.progress` — live progress lines and store reports
  rendered through :mod:`repro.eval.reporting`.

Quickstart
----------
>>> from repro.runner import GridSpec, ResultStore, execute_grid
>>> grid = GridSpec(
...     graphs=[{"kind": "generate", "n_nodes": 300, "n_edges": 1500, "seed": 1}],
...     estimators=["MCE"],
...     label_fractions=[0.1],
... )
>>> report = execute_grid(grid)  # doctest: +SKIP
"""

from repro.runner.executor import (
    ExecutionReport,
    RunOutcome,
    RunTimeoutError,
    execute_grid,
    run_experiment_batches,
)
from repro.runner.progress import (
    ProgressPrinter,
    render_store_report,
    store_to_sweep,
    summarize_report,
)
from repro.runner.spec import GridSpec, RunSpec, build_graph, content_hash
from repro.runner.store import ResultStore, StoreCorruptionError, merge_stores

__all__ = [
    "ExecutionReport",
    "GridSpec",
    "ProgressPrinter",
    "ResultStore",
    "RunOutcome",
    "RunSpec",
    "RunTimeoutError",
    "StoreCorruptionError",
    "build_graph",
    "content_hash",
    "execute_grid",
    "merge_stores",
    "render_store_report",
    "run_experiment_batches",
    "store_to_sweep",
    "summarize_report",
]

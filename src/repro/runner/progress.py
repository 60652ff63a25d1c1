"""Progress and summary reporting for grid executions.

Two halves:

* :class:`ProgressPrinter` — a line-oriented live progress callback for
  :func:`~repro.runner.executor.execute_grid`: one line per completed run
  with a running ``done/total`` counter, cache hits marked, failures
  surfaced immediately.
* Store reporting — :func:`store_to_sweep` reconstructs a
  :class:`~repro.eval.sweeps.SweepResult` from a result store so the
  existing table renderers in :mod:`repro.eval.reporting` (Markdown, CSV)
  work on stored grids unchanged; :func:`render_store_report` is the
  ``repro report`` body built on top of it.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.eval.experiment import ExperimentResult
from repro.eval.reporting import sweep_to_markdown
from repro.eval.sweeps import SweepResult
from repro.runner.executor import ExecutionReport, RunOutcome
from repro.runner.store import ResultStore

__all__ = [
    "ProgressPrinter",
    "store_to_sweep",
    "render_store_report",
    "summarize_report",
]


class ProgressPrinter:
    """Prints one status line per finished run.

    Use as the ``progress=`` callback of
    :func:`~repro.runner.executor.execute_grid`; construction takes the
    total so the counter is right even though outcomes arrive out of order.
    """

    def __init__(self, total: int, stream=None, enabled: bool = True) -> None:
        self.total = total
        self.done = 0
        self.stream = stream if stream is not None else sys.stdout
        self.enabled = enabled

    def __call__(self, outcome: RunOutcome) -> None:
        self.done += 1
        if not self.enabled:
            return
        if outcome.status == "cached":
            detail = "cache hit"
        elif outcome.status == "ok":
            detail = f"ok in {outcome.timing.get('total_seconds', 0.0):.2f}s"
        else:
            first_line = (outcome.error or "").strip().splitlines()
            detail = f"{outcome.status}: {first_line[-1] if first_line else '?'}"
        print(
            f"[{self.done}/{self.total}] {outcome.spec.label()} — {detail}",
            file=self.stream,
        )


def summarize_report(report: ExecutionReport) -> str:
    """One-paragraph execution summary (printed by ``repro run``)."""
    lines = [
        f"runs: {report.n_total} total, {report.n_cached} cache hits "
        f"({report.cache_hit_rate:.0%}), {report.n_executed} executed, "
        f"{report.n_errors} failed",
        f"workers: {report.n_workers}, wall time: {report.elapsed_seconds:.2f}s",
    ]
    return "\n".join(lines)


def _record_to_experiment(record: dict) -> ExperimentResult | None:
    """Rebuild an :class:`ExperimentResult` from a stored ``ok`` record."""
    result = record.get("result")
    if record.get("status") not in ("ok", "cached") or not result:
        return None
    timing = record.get("timing", {})
    return ExperimentResult(
        method=result["method"],
        label_fraction=result["label_fraction"],
        accuracy=result["accuracy"],
        l2_to_gold=result["l2_to_gold"],
        estimation_seconds=timing.get("estimation_seconds", 0.0),
        propagation_seconds=timing.get("propagation_seconds", 0.0),
        compatibility=np.asarray(result["compatibility"]),
        n_seeds=result["n_seeds"],
        details={},
        propagator=result.get("propagator", "linbp"),
        propagation_iterations=result.get("propagation_iterations", 0),
        propagation_converged=result.get("propagation_converged", True),
    )


def store_to_sweep(store: ResultStore) -> SweepResult:
    """View a result store as a label-fraction sweep.

    Successful records are grouped into the ``(method, label_fraction)``
    cells of a :class:`~repro.eval.sweeps.SweepResult`, which the existing
    reporting code renders; failed runs are simply absent (their cells show
    fewer repetitions).  A store that spans several graph configs or
    propagators gets one column per distinct combination (method labels are
    qualified as ``graph:method/propagator``) — cells never silently average
    across different experiments.
    """
    stored_records = store.records()
    graph_labels = set()
    propagators = set()
    for stored in stored_records:
        spec = stored.get("spec", {})
        graph = spec.get("graph", {})
        graph_labels.add(graph.get("name") or graph.get("kind"))
        propagators.add(spec.get("propagator"))
    records = []
    for stored in stored_records:
        experiment = _record_to_experiment(stored)
        if experiment is None:
            continue
        spec = stored["spec"]
        if len(graph_labels) > 1:
            graph = spec.get("graph", {})
            experiment.method = (
                f"{graph.get('name') or graph.get('kind')}:{experiment.method}"
            )
        if len(propagators) > 1:
            experiment.method = f"{experiment.method}/{spec.get('propagator')}"
        experiment.parameter_value = spec["label_fraction"]  # type: ignore[attr-defined]
        records.append(experiment)
    fractions = sorted({record.parameter_value for record in records})  # type: ignore[attr-defined]
    methods = sorted({record.method for record in records})
    sweep = SweepResult(
        parameter_name="label_fraction",
        parameter_values=fractions,
        methods=methods,
    )
    sweep.records = records
    return sweep


def render_store_report(store: ResultStore, metric: str = "accuracy") -> str:
    """Render a stored grid as status counts plus a mean-metric table."""
    counts = store.status_counts()
    count_text = ", ".join(
        f"{counts[status]} {status}" for status in sorted(counts)
    ) or "empty"
    lines = [
        f"store: {store.path}",
        f"records: {len(store)} ({count_text})",
    ]
    sweep = store_to_sweep(store)
    if sweep.records:
        lines.append("")
        lines.append(f"mean {metric} by (label_fraction x method), n = repetitions:")
        lines.append(sweep_to_markdown(sweep, metric=metric, show_repetitions=True))
    return "\n".join(lines)

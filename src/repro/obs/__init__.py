"""`repro.obs` — unified metrics, tracing, and profiling.

One dependency-free substrate for every measurement in the repo:

* **Metrics** — :func:`metrics` returns the process-global
  :class:`MetricsRegistry` (thread-safe counters, gauges, fixed-bucket
  histograms).  Injectable for tests via :func:`use_registry` /
  :func:`set_metrics_registry`; serialized for scraping with
  :func:`render_prometheus` and shipped across processes with
  ``registry.snapshot()`` / :func:`diff_snapshots` /
  ``registry.merge_snapshot()``.
* **Tracing** — :func:`span` context managers forming per-request
  trees; :func:`capture_context` + :func:`emit_span` carry parentage
  across thread hops (MicroBatcher queue -> worker).  Records go to the
  sink installed by :func:`configure_tracing` (or ``REPRO_TRACE=<path>``
  at import), typically a :class:`JsonlTraceSink` read back by
  ``repro stats``.
* **Switch** — ``REPRO_OBS=off`` (env) or :func:`set_enabled` turns all
  recording into no-ops; instrumentation never changes numerics either
  way.

Fleet layer (PR 8), built on those primitives:

* **History** — :class:`TimeSeriesRecorder` samples snapshots into a
  fixed-memory ring and answers windowed queries (rates, sliding
  p50/p95/p99); :func:`registry_source` feeds it locally.
* **Federation** — :func:`federate` fetches N ``/metrics`` endpoints as
  registry snapshots (JSON, via ``Accept: application/json``) into one
  ``instance``-labeled view; the router's ``/metrics`` and
  :class:`MetricsScraper` (``repro top``) both call it.
* **SLOs** — :class:`SloSpec` rules (JSON) evaluated by the recorder;
  firing rules degrade ``GET /healthz`` and surface on ``GET /alerts``.
* **Sampling** — ``REPRO_TRACE_SAMPLE`` / :func:`configure_sampling`
  head-sample traces (slow spans always kept).

Metric naming scheme: ``repro_<subsystem>_<metric>[_<unit>]`` with
labels for dimensions, e.g. ``repro_engine_solve_seconds{propagator}``,
``repro_serve_queries_total{graph}``, ``repro_batcher_queue_depth``.
Counters end in ``_total``; timings are histograms in seconds.  Every
family has a reader (a test, CI smoke, SLO spec or ``repro top``);
``tests/test_obs_families.py`` names it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.obs._flags import enabled, set_enabled
from repro.obs.registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    render_prometheus,
)
from repro.obs.report import (
    TraceReadError,
    read_trace,
    render_trace_report,
    render_trace_tree,
    summarize_spans,
)
from repro.obs.quality import (
    ACCURACY_BUCKETS,
    QualityMonitor,
    normalized_drift,
)
from repro.obs.scrape import (
    MetricsScraper,
    federate,
    federate_snapshots,
    label_snapshot,
)
from repro.obs.slo import RuleStatus, SloRule, SloSpec, SloSpecError
from repro.obs.timeseries import TimeSeriesRecorder, registry_source
from repro.obs.trace import (
    JsonlTraceSink,
    Span,
    SpanContext,
    capture_context,
    configure_sampling,
    configure_tracing,
    current_context,
    emit_span,
    new_trace_id,
    sampling,
    span,
    trace_sampled,
    tracing_active,
)

__all__ = [
    "enabled",
    "set_enabled",
    "metrics",
    "set_metrics_registry",
    "use_registry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "diff_snapshots",
    "render_prometheus",
    "LATENCY_BUCKETS",
    "span",
    "Span",
    "SpanContext",
    "emit_span",
    "capture_context",
    "current_context",
    "configure_tracing",
    "tracing_active",
    "new_trace_id",
    "JsonlTraceSink",
    "read_trace",
    "render_trace_report",
    "render_trace_tree",
    "TraceReadError",
    "summarize_spans",
    "TimeSeriesRecorder",
    "registry_source",
    "label_snapshot",
    "federate_snapshots",
    "federate",
    "MetricsScraper",
    "SloSpec",
    "SloRule",
    "RuleStatus",
    "SloSpecError",
    "QualityMonitor",
    "ACCURACY_BUCKETS",
    "normalized_drift",
    "configure_sampling",
    "sampling",
    "trace_sampled",
]

_global_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry (default home for all instrumentation)."""
    return _global_registry


def set_metrics_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Temporarily swap in a (fresh by default) global registry.

    The test suite's isolation primitive: instrumented code records into
    the swapped-in registry, and the previous one is restored on exit.
    """
    swapped = registry if registry is not None else MetricsRegistry()
    previous = set_metrics_registry(swapped)
    try:
        yield swapped
    finally:
        set_metrics_registry(previous)


# REPRO_TRACE=<path> wires a JSONL sink at import so any entry point
# (CLI, benchmarks, tests) can opt into tracing without code changes.
_trace_path = os.environ.get("REPRO_TRACE", "").strip()
if _trace_path:
    try:
        configure_tracing(JsonlTraceSink(_trace_path))
    except OSError:  # unwritable path: tracing stays off
        pass

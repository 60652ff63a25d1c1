"""Lightweight trace spans with cross-thread parenting.

A span is a named, timed region carrying a ``(trace_id, span_id)``
context.  Contexts propagate through a :mod:`contextvars` variable, so
nested ``with obs.span(...)`` blocks form a tree without any explicit
plumbing.  Two extra entry points cover the places where work moves
between threads:

* :func:`capture_context` — grab the caller's current context (e.g. in
  ``MicroBatcher.submit_delta``, on the HTTP handler thread);
* :func:`emit_span` — record an already-measured region against an
  explicit parent context (e.g. in the batcher's flush loop, on the
  worker thread), so the span tree survives the queue hop.

Spans only record when a sink is configured (``obs.configure_tracing``
or ``REPRO_TRACE=<path>``) *and* observability is enabled; otherwise
:func:`span` returns a shared no-op object and costs one attribute
check.  Records are flat dicts; :class:`JsonlTraceSink` appends them as
one JSON object per line for `repro stats`.

**Head-based sampling** keeps ``--trace`` viable at production qps:
``REPRO_TRACE_SAMPLE=<p>`` (or :func:`configure_sampling`) makes the
keep/drop decision once per trace, at the root span, from a hash of the
trace id — deterministic, so every process in a fleet agrees on the same
ids and sampled trees stay complete.  Child spans inherit the decision
through :class:`SpanContext`.  The escape hatch is *always-keep-slow*:
any span whose duration exceeds ``REPRO_TRACE_SLOW_MS`` (default 100) is
written even inside a dropped trace, tagged ``sampled: false``, so tail
latency outliers are never invisible.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextvars import ContextVar
from typing import NamedTuple

from repro.obs._flags import enabled

__all__ = [
    "SpanContext",
    "Span",
    "span",
    "emit_span",
    "capture_context",
    "current_context",
    "configure_tracing",
    "tracing_active",
    "configure_sampling",
    "sampling",
    "trace_sampled",
    "new_trace_id",
    "JsonlTraceSink",
]


class SpanContext(NamedTuple):
    trace_id: str
    span_id: str
    # Head-based sampling decision, made at the root span and inherited by
    # every child (and across the batcher's thread hop, which ships the
    # whole context).
    sampled: bool = True


_CURRENT: ContextVar[SpanContext | None] = ContextVar("repro_obs_span", default=None)


def new_trace_id() -> str:
    """16-hex-char random id (does not touch any seeded RNG stream)."""
    return os.urandom(8).hex()


def current_context() -> SpanContext | None:
    return _CURRENT.get()


# Alias emphasising intent at submit sites: "capture my context so the
# worker thread can parent its spans to me".
capture_context = current_context


class _Tracer:
    def __init__(self):
        self._sink = None

    def configure(self, sink):
        previous = self._sink
        self._sink = sink
        return previous

    @property
    def active(self) -> bool:
        return self._sink is not None and enabled()

    def emit(self, record: dict) -> None:
        sink = self._sink
        if sink is not None:
            sink(record)


_TRACER = _Tracer()


def configure_tracing(sink):
    """Install a span sink (a callable taking a record dict); returns the old one.

    Pass ``None`` to disable tracing.
    """
    return _TRACER.configure(sink)


def tracing_active() -> bool:
    return _TRACER.active


# ------------------------------------------------------------------- sampling
def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


_sample_probability = min(max(_env_float("REPRO_TRACE_SAMPLE", 1.0), 0.0), 1.0)
_slow_threshold_ms = _env_float("REPRO_TRACE_SLOW_MS", 100.0)


def configure_sampling(
    probability: float | None = None, slow_ms: float | None = None
) -> tuple[float, float]:
    """Set the head-sampling probability and/or the always-keep-slow
    threshold (milliseconds); returns the previous ``(probability,
    slow_ms)`` pair.  ``probability=1`` keeps every trace (the default),
    ``0`` keeps none (slow spans still surface)."""
    global _sample_probability, _slow_threshold_ms
    previous = (_sample_probability, _slow_threshold_ms)
    if probability is not None:
        _sample_probability = min(max(float(probability), 0.0), 1.0)
    if slow_ms is not None:
        _slow_threshold_ms = float(slow_ms)
    return previous


def sampling() -> tuple[float, float]:
    """The active ``(probability, slow_ms)`` sampling configuration."""
    return (_sample_probability, _slow_threshold_ms)


def trace_sampled(trace_id: str) -> bool:
    """The head-sampling decision for a trace id.

    Deterministic — a hash of the id, not an RNG draw — so concurrent
    processes keep or drop the *same* traces (federated trees stay whole)
    and nothing here perturbs the repo's seeded RNG streams.
    """
    if _sample_probability >= 1.0:
        return True
    if _sample_probability <= 0.0:
        return False
    try:
        fraction = int(trace_id[:8], 16) / float(1 << 32)
    except ValueError:
        fraction = 0.0  # unparseable ids (caller-supplied) are always kept
    return fraction < _sample_probability


class JsonlTraceSink:
    """Appends span records to a JSONL file, one object per line."""

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


def _clean_attrs(attrs: dict) -> dict:
    return {
        key: (value if isinstance(value, (str, int, float, bool)) or value is None else str(value))
        for key, value in attrs.items()
    }


class Span:
    """Context manager recording one timed region (see module docstring)."""

    __slots__ = ("name", "attrs", "context", "parent_id", "_explicit_parent",
                 "_trace_id", "_token", "_wall_start", "_perf_start")

    def __init__(self, name: str, parent: SpanContext | None, trace_id: str | None, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.context: SpanContext | None = None
        self.parent_id: str | None = None
        self._explicit_parent = parent
        self._trace_id = trace_id

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self):
        parent = self._explicit_parent if self._explicit_parent is not None else _CURRENT.get()
        if parent is not None:
            trace_id = parent.trace_id
            self.parent_id = parent.span_id
            sampled = getattr(parent, "sampled", True)
        else:
            trace_id = self._trace_id or new_trace_id()
            sampled = trace_sampled(trace_id)
        self.context = SpanContext(trace_id, new_trace_id(), sampled)
        self._token = _CURRENT.set(self.context)
        self._wall_start = time.time()
        self._perf_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._perf_start
        _CURRENT.reset(self._token)
        duration_ms = duration * 1000.0
        # Head sampling: an unsampled trace's spans are dropped here —
        # unless this one is slow enough to be a tail-latency exemplar.
        if not self.context.sampled and duration_ms < _slow_threshold_ms:
            return False
        record = {
            "trace": self.context.trace_id,
            "span": self.context.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self._wall_start,
            "duration_ms": duration_ms,
            "thread": threading.current_thread().name,
        }
        if not self.context.sampled:
            record["sampled"] = False  # kept only because it crossed slow_ms
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = _clean_attrs(self.attrs)
        _TRACER.emit(record)
        return False


class _NullSpan:
    """Shared no-op stand-in when tracing is inactive."""

    __slots__ = ()
    context = None
    parent_id = None

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, parent: SpanContext | None = None, trace_id: str | None = None, **attrs):
    """Open a span; returns a context manager.

    ``parent`` overrides the ambient context (for cross-thread hops);
    ``trace_id`` seeds a fresh root span with a known id (the HTTP layer
    uses this so the span tree matches the ``X-Repro-Trace`` header).
    """
    if not _TRACER.active:
        return _NULL_SPAN
    return Span(name, parent, trace_id, attrs)


def emit_span(
    name: str,
    seconds: float,
    parent: SpanContext | None = None,
    trace_id: str | None = None,
    **attrs,
) -> SpanContext | None:
    """Record an already-completed region without entering a context.

    Used where the measurement happened on a different thread than the
    logical parent (the batcher measures one coalesced service call and
    attributes it to every submitter's context).  Returns the emitted
    span's context, or None when tracing is inactive.
    """
    if not _TRACER.active:
        return None
    if parent is not None:
        trace = parent.trace_id
        parent_id = parent.span_id
        sampled = getattr(parent, "sampled", True)
    else:
        trace = trace_id or new_trace_id()
        parent_id = None
        sampled = trace_sampled(trace)
    context = SpanContext(trace, new_trace_id(), sampled)
    duration_ms = seconds * 1000.0
    if not sampled and duration_ms < _slow_threshold_ms:
        return context
    record = {
        "trace": context.trace_id,
        "span": context.span_id,
        "parent": parent_id,
        "name": name,
        "ts": time.time() - seconds,
        "duration_ms": duration_ms,
        "thread": threading.current_thread().name,
    }
    if not sampled:
        record["sampled"] = False
    if attrs:
        record["attrs"] = _clean_attrs(attrs)
    _TRACER.emit(record)
    return context

"""Incremental propagation over evolving graphs.

The batch pipeline answers "given *this* graph, what are the labels?"; this
package answers the production question "the graph just changed — what are
the labels *now*?" without re-paying the full pipeline:

* :mod:`repro.stream.delta` — :class:`GraphDelta` (add/remove edges, add
  nodes, reveal labels), its JSONL event format, and ``O(nnz + delta)``
  application onto a canonical CSR adjacency;
* :mod:`repro.stream.incremental` — :class:`IncrementalPropagator`, the
  warm / localized / full decision policy around LinBP, with its
  full-solve fallbacks (huge delta, spectral-radius drift);
* :mod:`repro.stream.session` — :class:`StreamingSession`, owning the
  mutable graph plus all warm state: evolved operator caches, the carried
  dominant Ritz pair that settles LinBP's convergence scaling, the
  compatibility matrix, visible seeds and the last beliefs;
* :mod:`repro.stream.replay` — :func:`replay_events`, the evaluation
  scenario scoring accuracy/latency per event and verifying incremental
  beliefs against cold batch re-solves.

Quickstart::

    from repro.propagation import LinBPPropagator
    from repro.stream import GraphDelta, StreamingSession

    session = StreamingSession(
        graph, LinBPPropagator(max_iterations=200, tolerance=1e-8),
        compatibility=H, seed_labels=seeds,
    )
    session.propagate()                      # anchored full solve
    step = session.step(GraphDelta(add_edges=[[3, 17], [5, 96]]))
    print(step.mode, step.total_seconds, step.result.labels)

The CLI equivalent is ``repro stream graph.npz events.jsonl``.
"""

from repro.stream.delta import (
    DeltaApplication,
    GraphDelta,
    apply_delta,
    read_delta_stream,
    write_delta_stream,
)
from repro.stream.incremental import IncrementalDecision, IncrementalPropagator
from repro.stream.replay import (
    ReplayReport,
    ReplayStepRecord,
    replay_events,
    synthesize_delta_stream,
)
from repro.stream.session import StreamingSession, StreamStep

__all__ = [
    "DeltaApplication",
    "GraphDelta",
    "IncrementalDecision",
    "IncrementalPropagator",
    "ReplayReport",
    "ReplayStepRecord",
    "StreamStep",
    "StreamingSession",
    "apply_delta",
    "read_delta_stream",
    "replay_events",
    "synthesize_delta_stream",
    "write_delta_stream",
]

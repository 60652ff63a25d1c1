"""Online inference service: micro-batched queries over warm streaming sessions.

The fourth subsystem of the reproduction, closing the loop from batch
experiments to *serving*:

* :mod:`repro.serve.service` — :class:`InferenceService`, a registry of
  named :class:`~repro.stream.session.StreamingSession` objects answering
  belief queries with staleness metadata and absorbing
  :class:`~repro.stream.delta.GraphDelta` batches with one propagation each;
* :mod:`repro.serve.batcher` — :class:`MicroBatcher`, the bounded queue
  that coalesces concurrent queries into one vectorized lookup and
  concurrent deltas into one incremental propagation (max-latency flush);
* :mod:`repro.serve.http` — the stdlib ``ThreadingHTTPServer`` JSON API
  behind ``repro serve``;
* :mod:`repro.serve.loader` — graph loading from ``.npz`` bundles or
  runner-store records, shared with ``repro stream --from-store``;
* :mod:`repro.serve.queue` — :class:`DeltaQueue`, the flock-safe JSONL
  redo log that makes delta acknowledgements durable across ``kill -9``;
* :mod:`repro.serve.router` — :class:`Router`, the horizontal tier:
  a worker pool with deterministic session placement, supervision,
  crash recovery (reload + redo-log replay), and federated ``/metrics``
  behind ``repro serve --workers N``.

Quickstart::

    from repro.serve import InferenceService, MicroBatcher

    service = InferenceService()
    service.load_graph("demo", path="graph.npz", method="DCEr")
    result = service.query("demo", nodes=[0, 17, 42], top_k=2)
    print(result.labels, result.staleness)

    with MicroBatcher(service) as batcher:      # coalescing front-end
        futures = [batcher.submit_query("demo", [n]) for n in range(64)]
        answers = [future.result() for future in futures]

The CLI equivalent is ``repro serve graph.npz --port 8151``.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.http import InferenceHTTPServer, make_server
from repro.serve.loader import (
    GraphSourceError,
    graph_from_store,
    load_serving_graph,
    resolve_store_record,
)
from repro.serve.queue import DeltaQueue, QueueCorruptionError
from repro.serve.router import Router, RouterHTTPServer, make_router_server
from repro.serve.service import (
    DeltaBatchResult,
    InferenceService,
    QueryResult,
    ServeError,
    UnknownGraphError,
)

__all__ = [
    "DeltaBatchResult",
    "DeltaQueue",
    "GraphSourceError",
    "InferenceHTTPServer",
    "InferenceService",
    "MicroBatcher",
    "QueryResult",
    "QueueCorruptionError",
    "Router",
    "RouterHTTPServer",
    "ServeError",
    "UnknownGraphError",
    "graph_from_store",
    "load_serving_graph",
    "make_router_server",
    "make_server",
    "resolve_store_record",
]

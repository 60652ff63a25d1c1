"""Micro-batching front-end: coalesce concurrent deltas into one propagation.

Queries do not pass through here: :meth:`InferenceService.query` reads the
published belief snapshot on the caller's thread, because a belief gather
(~0.2 ms) costs less than handing the request to another thread and back.
Deltas are where batching pays: the service absorbs N deltas with a single
incremental propagation.  :class:`MicroBatcher` bridges the two — callers
submit individual deltas and get futures; a single worker thread drains
the queue and runs each coalesced batch through the service's two halves,
:meth:`~InferenceService.apply_and_log` then
:meth:`~InferenceService.propagate_and_publish`.  Every flush propagates,
so the solve always runs on this thread, never inside a query.

Flush policy (the classic request-batching trade-off):

* a flush waits out ``max_latency_seconds`` from the oldest pending delta,
  so deltas that arrive staggered within the budget share one
  propagation — an isolated delta is delayed by the full budget;
* a flush happens immediately once ``max_batch`` deltas are pending —
  heavy load degrades into back-to-back full batches, never unbounded
  queues.

Freshness contract: an ``ack="applied"`` future resolves between the two
halves, once its delta is applied and logged; an ``ack="propagated"``
future resolves after the coalesced belief refresh is published.  A query
issued after a propagated ack reflects the delta; a query carrying an
applied ack's token as ``min_version`` waits for the publish that covers
it (read-your-writes).  A query that races a delta still waiting here
answers from the beliefs before it: that delta has not been acknowledged
yet.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro import obs
from repro.serve.service import InferenceService, QueryResult, ServeError

__all__ = ["MicroBatcher"]


@dataclass
class _Pending:
    graph: str
    delta: object
    ack: str
    delta_id: str | None
    future: Future
    # Submitter's trace context, captured on the caller's thread so the
    # flush (on the worker thread) can parent its span to the request.
    ctx: object = None
    arrived: float = field(default_factory=time.monotonic)


class MicroBatcher:
    """Bounded-queue delta coalescer in front of one :class:`InferenceService`.

    Parameters
    ----------
    service:
        The service every flushed batch is executed against.
    max_batch:
        Flush as soon as this many deltas are pending.
    max_latency_seconds:
        Flush this long after the oldest pending delta arrived — the
        queueing delay batching adds to a delta that fills no batch.
    max_queue:
        Backpressure bound: :meth:`submit_delta` raises once this many
        deltas are waiting (a stalled propagation must not buffer
        unbounded work).
    start:
        Start the worker thread immediately.  Tests pass ``False`` and
        drive :meth:`flush_pending` by hand to make coalescing
        deterministic.
    """

    def __init__(
        self,
        service: InferenceService,
        max_batch: int = 128,
        max_latency_seconds: float = 0.002,
        max_queue: int = 65536,
        start: bool = True,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency_seconds < 0:
            raise ValueError("max_latency_seconds must be >= 0")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_latency_seconds = float(max_latency_seconds)
        self.max_queue = int(max_queue)
        self._queue: deque[_Pending] = deque()
        self._condition = threading.Condition()
        self._stopped = False
        self._worker: threading.Thread | None = None
        # Tallies (updated only by the flushing thread).
        self.n_flushes = 0
        self.n_deltas = 0
        self.n_delta_batches = 0
        self.largest_batch = 0
        # Registry mirrors of the flush behavior (the tallies above stay
        # authoritative for stats(); these feed /metrics).
        registry = service.registry
        self._g_queue_depth = registry.gauge(
            "repro_batcher_queue_depth", "Deltas waiting in the batcher queue."
        )
        self._c_flushes = registry.counter(
            "repro_batcher_flushes_total", "Batcher flush cycles executed."
        )
        if start:
            self.start()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the background flushing thread (idempotent)."""
        if self._worker is not None and self._worker.is_alive():
            return
        self._stopped = False
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker after it drains everything already queued."""
        with self._condition:
            self._stopped = True
            self._condition.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout)
            self._worker = None
        # Anything still queued (worker died, never started, or is stuck
        # past the join timeout) must not leave callers blocked on their
        # futures forever.  Drain under the lock: items taken here were
        # never seen by a still-live worker (it pops under the same lock),
        # so this thread is their sole owner.
        with self._condition:
            abandoned = list(self._queue)
            self._queue.clear()
        for pending in abandoned:
            pending.future.set_exception(
                ServeError("batcher closed before the request ran", status=503)
            )

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def submit_delta(
        self, graph: str, delta, ack: str = "propagated",
        delta_id: str | None = None,
    ) -> Future:
        """Enqueue a delta; the future resolves once a flush handled it.

        The result is a :class:`~repro.serve.service.DeltaBatchResult`
        scoped to this one delta (``n_deltas == 1``; ``n_coalesced`` tells
        how many siblings shared the propagation), or the future carries a
        ``ServeError`` when the delta was rejected.

        ``ack="propagated"`` (the default) resolves after the coalesced
        belief refresh is published; ``ack="applied"`` resolves as soon as
        the delta is applied and durably logged, and the same flush then
        propagates it.  ``delta_id`` makes retries idempotent through the
        service's durable queue.
        """
        if ack not in ("propagated", "applied"):
            raise ServeError(
                f"ack must be 'propagated' or 'applied', got {ack!r}"
            )
        future: Future = Future()
        # Captured on the submitting thread: the flush runs on the worker
        # thread, where the contextvar chain back to this request is gone.
        ctx = obs.capture_context() if obs.tracing_active() else None
        with self._condition:
            if self._stopped:
                raise ServeError("batcher is closed", status=503)
            if len(self._queue) >= self.max_queue:
                raise ServeError(
                    f"batcher queue is full ({self.max_queue} pending)",
                    status=503,
                )
            self._queue.append(_Pending(graph, delta, ack, delta_id, future, ctx))
            depth = len(self._queue)
            self._condition.notify()
        self._g_queue_depth.set(depth)
        return future

    def apply_delta(
        self, graph: str, delta, ack: str = "propagated",
        delta_id: str | None = None, timeout: float | None = 30.0,
    ) -> dict:
        """Submit a delta and wait until a flush has handled it."""
        return self.submit_delta(
            graph, delta, ack=ack, delta_id=delta_id
        ).result(timeout=timeout)

    def query(
        self, graph: str, nodes, top_k: int | None = None,
        min_version: int | None = None,
    ) -> QueryResult:
        """Answer a query on the caller's thread (see the module docstring).

        Lets a batcher stand in for its service wherever a caller drives
        both verbs through one front-end.
        """
        return self.service.query(graph, nodes, top_k, min_version)

    # -------------------------------------------------------------- flushing
    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._stopped:
                    self._condition.wait()
                if not self._queue and self._stopped:
                    return
                deadline = self._queue[0].arrived + self.max_latency_seconds
                while len(self._queue) < self.max_batch and not self._stopped:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._condition.wait(timeout=remaining)
            self.flush_pending()

    def flush_pending(self) -> int:
        """Drain and apply up to ``max_batch`` queued deltas; returns the count.

        Public so tests (and the benchmark's calibration path) can drive
        batching synchronously with ``start=False``.
        """
        with self._condition:
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self.max_batch))
            ]
        if not batch:
            return 0
        self.n_flushes += 1
        self.largest_batch = max(self.largest_batch, len(batch))
        self._c_flushes.inc()
        self._g_queue_depth.set(len(self._queue))

        # One apply and one propagation per graph.  Every graph's apply
        # half runs first, so an applied ack never waits out another
        # graph's solve.  Both halves run under a span parented to the
        # first submitter's context, so the service's spans (serve.delta,
        # serve.propagate, stream.propagate, engine.solve) join that
        # request's trace.
        by_graph: dict[str, list[_Pending]] = {}
        for pending in batch:
            by_graph.setdefault(pending.graph, []).append(pending)
        solves = []
        for graph, pendings in by_graph.items():
            self.n_deltas += len(pendings)
            self.n_delta_batches += 1
            call_start = time.perf_counter()
            try:
                with obs.span("batcher.apply", parent=pendings[0].ctx, graph=graph,
                              coalesced=len(pendings)):
                    applied = self.service.apply_and_log(
                        graph,
                        [pending.delta for pending in pendings],
                        delta_ids=[pending.delta_id for pending in pendings],
                    )
            except Exception as exc:
                for pending in pendings:
                    pending.future.set_exception(exc)
                continue
            # Rejected deltas and applied acks are answered before the solve.
            now, waiting = [], []
            for position, pending in enumerate(pendings):
                if applied.errors[position] is None and pending.ack == "propagated":
                    waiting.append(position)
                else:
                    now.append(position)
            self._resolve(applied, pendings, now, call_start)
            solves.append((applied, pendings, waiting, call_start))

        for applied, pendings, waiting, call_start in solves:
            try:
                with obs.span("batcher.propagate", parent=pendings[0].ctx,
                              graph=applied.name, coalesced=len(pendings)):
                    outcome = self.service.propagate_and_publish(applied)
            except Exception as exc:
                # Applied acks stand: their deltas are logged, and the next
                # flush's propagation covers them.  Until then the graph
                # reports them as pending_deltas.
                for position in waiting:
                    pendings[position].future.set_exception(exc)
                if not waiting:
                    traceback.print_exc()  # no caller to hand the error to
                continue
            self._resolve(outcome, pendings, waiting, call_start)
        return len(batch)

    @staticmethod
    def _resolve(outcome, pendings, positions, call_start: float) -> None:
        """Answer the callers at ``positions`` from one service outcome.

        Each caller whose delta shared this flush first gets one
        ``batcher.flush_delta`` span, parented to the context captured at
        submit time — the hop that keeps request trees intact across the
        queue -> worker-thread boundary.  Each caller submitted ONE delta
        and gets a result scoped to it (n_deltas=1, its own token), so a
        single-delta POST reports the same shape whether or not siblings
        were coalesced into the flush; n_coalesced carries the
        shared-propagation count.
        """
        if obs.tracing_active():
            seconds = time.perf_counter() - call_start
            for position in positions:
                obs.emit_span(
                    "batcher.flush_delta", seconds, parent=pendings[position].ctx,
                    graph=outcome.name, coalesced=len(pendings),
                )
        for position in positions:
            error = outcome.errors[position]
            if error is None:
                pendings[position].future.set_result(outcome.scoped_to_one(position))
            else:
                pendings[position].future.set_exception(
                    ServeError(f"delta rejected: {error}")
                )

    # ----------------------------------------------------------------- stats
    def saturation(self) -> dict:
        """Queue fill state for ``GET /healthz`` (1.0 = submits rejected)."""
        with self._condition:
            depth = len(self._queue)
        return {
            "queue_depth": depth,
            "max_queue": self.max_queue,
            "saturation": depth / self.max_queue,
        }

    def stats(self) -> dict:
        """Coalescing tallies for the ``/stats`` endpoint."""
        return {
            "n_flushes": self.n_flushes,
            "n_deltas": self.n_deltas,
            "n_delta_batches": self.n_delta_batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.n_deltas / max(1, self.n_flushes),
            "propagations_saved": self.n_deltas - self.n_delta_batches,
            "pending": len(self._queue),
            "max_batch": self.max_batch,
            "max_latency_seconds": self.max_latency_seconds,
        }

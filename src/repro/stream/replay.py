"""Replay scenario: drive a streaming session with a recorded delta stream.

:func:`replay_events` feeds a sequence of :class:`~repro.stream.delta.GraphDelta`
events through a :class:`~repro.stream.session.StreamingSession`, scoring
accuracy and latency after every step.  With ``verify_every=k`` it
additionally runs, every ``k``-th step, the *batch* pipeline on a fresh copy
of the current graph — a cold :class:`~repro.graph.graph.Graph` with a fresh
operator cache, so the cold spectral radius and the from-scratch fixed point
are all paid — and records both the full re-solve's wall time and the
maximum belief deviation between the incremental and batch answers.  That
deviation is the correctness contract of the whole subsystem (CI asserts it
stays ≤ 1e-6), and the full/incremental timing ratio is its speedup story.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.eval.metrics import macro_accuracy
from repro.graph.graph import Graph
from repro.propagation.linbp import LinBPPropagator
from repro.stream.delta import GraphDelta
from repro.stream.session import StreamingSession

__all__ = [
    "ReplayStepRecord",
    "ReplayReport",
    "replay_events",
    "synthesize_delta_stream",
]


def synthesize_delta_stream(
    graph: Graph,
    n_events: int = 20,
    initial_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[Graph, list[GraphDelta]]:
    """Decompose a static graph into ``(initial_graph, deltas)`` for replay.

    This is how a *batch* graph (a stored ``.npz`` bundle, or a grid point
    rebuilt from a runner-store record) becomes a stream without a recorded
    event file: a random ``initial_fraction`` of its edges forms the
    starting graph and the remainder arrives as ``n_events`` edge-insertion
    deltas in shuffled order.  Replaying the result ends at exactly the
    original graph (weights included), so accuracy at the final event is
    comparable to the batch experiment on the full graph.

    The split is deterministic in ``seed``.  Node count, labels and class
    count are shared with the input, so nodes untouched by early events are
    simply isolated until their edges arrive.
    """
    if not 0.0 < initial_fraction < 1.0:
        raise ValueError(
            f"initial_fraction must be in (0, 1), got {initial_fraction}"
        )
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    edges = np.column_stack([coo.row, coo.col]).astype(np.int64)
    weights = np.asarray(coo.data, dtype=np.float64)
    n_edges = edges.shape[0]
    if n_edges < 2:
        raise ValueError("graph needs at least 2 edges to stream")
    order = np.random.default_rng(seed).permutation(n_edges)
    n_initial = min(n_edges - 1, max(1, int(round(initial_fraction * n_edges))))
    initial_index = order[:n_initial]
    initial = Graph.from_edges(
        edges[initial_index],
        n_nodes=graph.n_nodes,
        labels=None if graph.labels is None else graph.labels.copy(),
        n_classes=graph.n_classes,
        weights=weights[initial_index],
        name=f"{graph.name}/stream",
    )
    remaining = order[n_initial:]
    n_events = min(n_events, remaining.shape[0])
    deltas = [
        GraphDelta(add_edges=edges[chunk], add_weights=weights[chunk])
        for chunk in np.array_split(remaining, n_events)
        if chunk.size
    ]
    return initial, deltas


@dataclass
class ReplayStepRecord:
    """Everything measured for one replayed event."""

    step: int
    delta: str
    mode: str
    reason: str
    apply_seconds: float
    spectral_seconds: float
    propagate_seconds: float
    total_seconds: float
    n_iterations: int
    converged: bool
    n_nodes: int
    n_edges: int
    n_seeds: int
    touched_nnz: int = 0
    accuracy: float | None = None
    full_seconds: float | None = None
    deviation: float | None = None

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "delta": self.delta,
            "mode": self.mode,
            "reason": self.reason,
            "apply_seconds": self.apply_seconds,
            "spectral_seconds": self.spectral_seconds,
            "propagate_seconds": self.propagate_seconds,
            "total_seconds": self.total_seconds,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_seeds": self.n_seeds,
            "touched_nnz": self.touched_nnz,
            "accuracy": self.accuracy,
            "full_seconds": self.full_seconds,
            "deviation": self.deviation,
        }


@dataclass
class ReplayReport:
    """Aggregate outcome of one replay run."""

    steps: list[ReplayStepRecord] = field(default_factory=list)
    # The session's quality-monitor view at end of replay (prequential
    # accuracy, churn, drift); all-zero when REPRO_OBS=off.
    quality: dict | None = None

    @property
    def n_incremental(self) -> int:
        return sum(1 for record in self.steps if record.mode == "incremental")

    @property
    def n_localized(self) -> int:
        return sum(1 for record in self.steps if record.mode == "localized")

    @property
    def n_full(self) -> int:
        return sum(1 for record in self.steps if record.mode == "full")

    @property
    def total_touched_nnz(self) -> int:
        return sum(record.touched_nnz for record in self.steps)

    @property
    def final_accuracy(self) -> float | None:
        for record in reversed(self.steps):
            if record.accuracy is not None:
                return record.accuracy
        return None

    @property
    def max_deviation(self) -> float | None:
        deviations = [r.deviation for r in self.steps if r.deviation is not None]
        return max(deviations) if deviations else None

    def mean_seconds(self, mode: str | None = None) -> float | None:
        """Mean end-to-end step latency, optionally filtered by mode."""
        values = [
            record.total_seconds
            for record in self.steps
            if mode is None or record.mode == mode
        ]
        return float(np.mean(values)) if values else None

    @property
    def verified_speedup(self) -> float | None:
        """Mean full-re-solve time over mean warm (incremental or
        localized) step time.

        Only uses verified warm steps so the two sides describe the same
        deltas; None when verification never ran on a warm step.
        """
        pairs = [
            (record.full_seconds, record.total_seconds)
            for record in self.steps
            if record.full_seconds is not None
            and record.mode in ("incremental", "localized")
        ]
        if not pairs:
            return None
        full = float(np.mean([p[0] for p in pairs]))
        incremental = float(np.mean([p[1] for p in pairs]))
        return full / incremental if incremental > 0 else None

    def to_dict(self) -> dict:
        return {
            "n_steps": len(self.steps),
            "n_incremental": self.n_incremental,
            "n_localized": self.n_localized,
            "n_full": self.n_full,
            "final_accuracy": self.final_accuracy,
            "max_deviation": self.max_deviation,
            "mean_step_seconds": self.mean_seconds(),
            "mean_incremental_seconds": self.mean_seconds("incremental"),
            "mean_localized_seconds": self.mean_seconds("localized"),
            "total_touched_nnz": self.total_touched_nnz,
            "verified_speedup": self.verified_speedup,
            "quality": self.quality,
            "steps": [record.to_dict() for record in self.steps],
        }


def _batch_resolve(session: StreamingSession) -> tuple[np.ndarray, float]:
    """Run the batch pipeline cold on the session's current graph state.

    A fresh :class:`Graph` wraps a *copy* of the adjacency so none of the
    session's caches can leak in: the fresh operator layer recomputes the
    normalizations and the cold Lanczos spectral radius, and the propagator
    starts from the priors — exactly what re-running the pipeline after a graph
    change costs today without the streaming layer.
    """
    graph = Graph(
        adjacency=session.graph.adjacency.copy(),
        labels=None if session.graph.labels is None else session.graph.labels.copy(),
        n_classes=session.graph.n_classes,
        name=f"{session.graph.name}/batch",
    )
    propagator = copy.copy(session.propagator)
    start = time.perf_counter()
    result = propagator.propagate(
        graph,
        session.seed_labels,
        compatibility=session.compatibility,
        n_classes=session.graph.n_classes,
    )
    return result.beliefs, time.perf_counter() - start


def replay_events(
    graph: Graph,
    deltas: list[GraphDelta],
    propagator: LinBPPropagator,
    compatibility: np.ndarray | None = None,
    seed_labels: np.ndarray | None = None,
    verify_every: int = 0,
    score: bool = True,
    **session_kwargs,
) -> ReplayReport:
    """Replay a delta stream through a fresh session and score every step.

    Parameters
    ----------
    graph:
        Starting graph; copied into the session, the caller's object is
        untouched.
    deltas:
        The event stream (e.g. from
        :func:`repro.stream.delta.read_delta_stream`).
    propagator:
        Ready :class:`LinBPPropagator` instance driving the session.
    compatibility / seed_labels:
        Session warm state (see :class:`StreamingSession`).
    verify_every:
        Every this-many steps, run the batch pipeline cold and record its
        wall time plus the max belief deviation against the incremental
        answer (0 disables verification).
    score:
        Compute macro accuracy over the non-seed labeled nodes after each
        step (requires ground-truth labels on the graph).
    session_kwargs:
        Forwarded to :class:`StreamingSession` (fallback thresholds,
        ``strict``, ...).

    The initial solve (before any delta) is recorded as step 0 with an empty
    delta, so the report always starts from an anchored full solve.
    """
    session = StreamingSession(
        graph.copy(),
        propagator,
        compatibility=compatibility,
        seed_labels=seed_labels,
        **session_kwargs,
    )
    report = ReplayReport()
    score = score and session.graph.labels is not None

    def record_step(step, delta_description: str) -> ReplayStepRecord:
        accuracy = None
        if score:
            seeds = np.flatnonzero(session.seed_labels >= 0)
            accuracy = macro_accuracy(
                session.graph.labels,
                step.result.labels,
                session.graph.n_classes,
                exclude_indices=seeds,
            )
        record = ReplayStepRecord(
            step=step.index,
            delta=delta_description,
            mode=step.mode,
            reason=step.decision.reason,
            apply_seconds=step.apply_seconds,
            spectral_seconds=step.spectral_seconds,
            propagate_seconds=step.propagate_seconds,
            total_seconds=step.total_seconds,
            n_iterations=step.result.n_iterations,
            converged=step.result.converged,
            n_nodes=step.n_nodes,
            n_edges=step.n_edges,
            n_seeds=int(np.sum(session.seed_labels >= 0)),
            touched_nnz=step.touched_nnz,
            accuracy=accuracy,
        )
        if verify_every and step.index % verify_every == 0:
            full_beliefs, full_seconds = _batch_resolve(session)
            record.full_seconds = full_seconds
            record.deviation = float(
                np.abs(step.result.beliefs - full_beliefs).max()
            )
        report.steps.append(record)
        return record

    with obs.span("stream.replay", graph=graph.name, n_events=len(deltas)):
        initial = session.propagate()
        record_step(initial, "initial solve")
        for delta in deltas:
            step = session.step(delta)
            record_step(step, delta.summary())
    report.quality = session.quality_summary()
    return report

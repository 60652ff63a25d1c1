"""StreamingSession: a mutable graph plus the warm state that makes updates cheap.

A session owns one evolving :class:`~repro.graph.graph.Graph` and everything
a batch pipeline would rebuild from scratch after every change:

* the canonical CSR adjacency, mutated in ``O(nnz + delta)`` per applied
  delta instead of an ``O(m log m)`` rebuild from the edge list,
* the operator cache (:class:`~repro.graph.operators.GraphOperators`),
  evolved with incrementally updated degrees and explicitly invalidated on
  the graph object so no stale normalization can leak,
* the last Ritz vector ``v`` of ``W`` with ``Wv`` and ``v'Wv``, moved over
  each delta's ``dW`` on the touched rows only: LinBP's epsilon needs just
  the rung of ``rho(W)`` on the scaling ladder, which Temple's interval
  around ``v'Wv`` settles with no product with ``W`` when it fits one rung
  (else a warm Lanczos restart from ``v`` runs until its interval does),
* the compatibility matrix and the visible seed labels,
* the paper's neighbor label counts ``M = X^T W X`` over the seed-labeled
  subgraph, advanced exactly by every delta
  (:func:`~repro.core.statistics.update_neighbor_statistics`),
* the last :class:`~repro.propagation.engine.PropagationResult`, from which
  the next solve warm-starts through
  :class:`~repro.stream.incremental.IncrementalPropagator`.

``session.step(delta)`` is the one-call path: apply the delta, refresh the
warm state, propagate (warm or full per the fallback policy) and return a
timed :class:`StreamStep`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.core.statistics import neighbor_statistics, update_neighbor_statistics
from repro.graph.graph import Graph, one_hot_labels
from repro.propagation.convergence import (
    COLD_LANCZOS_STEPS,
    COLD_LANCZOS_TOLERANCE,
    SpectralState,
    lanczos_spectral_state,
    ladder_rung,
)
from repro.propagation.engine import PropagationResult
from repro.propagation.linbp import LinBPPropagator
from repro.propagation.push import LocalizedHint, _neighbor_positions
from repro.stream.delta import GraphDelta, apply_delta
from repro.stream.incremental import (
    FULL_SOLVE_EDGE_FRACTION,
    LOCALIZED_EDGE_FRACTION,
    RADIUS_DRIFT_TOLERANCE,
    IncrementalDecision,
    IncrementalPropagator,
    delta_edge_fraction,
)

__all__ = ["StreamStep", "StreamingSession"]

# Unique per-session metric label so every session's series stay separate
# on the (by default process-global) registry.
_SESSION_IDS = itertools.count()

# Warm Lanczos restarts, run when the carried Ritz pair cannot settle the
# rung, stop once their own Temple interval would fit one rung at
# REFRESH_HEADROOM times its width (so the deltas after them settle without
# a product for longer), or at the latest once the Ritz value is stable to
# WARM_LANCZOS_TOLERANCE (relative), far below a rung.
WARM_LANCZOS_STEPS = 60
WARM_LANCZOS_TOLERANCE = 2e-8
REFRESH_HEADROOM = 4.0
# Temple's interval needs a value between the second eigenvalue and the
# Rayleigh quotient theta.  The session takes the midpoint of theta and the
# second Ritz value theta_2 of the last cold Lanczos run, so the interval
# holds while the second eigenvalue rises by less than half of
# theta - theta_2 after the anchor (interlacing already puts theta_2 at or
# below it).  A fixed constant, not a tuning knob.
TEMPLE_GAP_SHARE = 0.5


@dataclass
class StreamStep:
    """Timed outcome of one applied-and-propagated delta.

    ``apply_seconds`` covers the CSR mutation and label bookkeeping,
    ``spectral_seconds`` settling the rung of ``rho(W)`` (zero when LinBP's
    epsilon is pinned), ``propagate_seconds`` the localized hint and the
    warm or full solve itself.  ``spectral_products`` counts the products
    with ``W`` the spectral refresh ran: 0 when the carried Ritz pair
    settled the rung, else the steps of a warm (or, for a full solve, the
    cold) Lanczos run.
    """

    index: int
    delta_summary: str
    decision: IncrementalDecision
    result: PropagationResult
    apply_seconds: float
    spectral_seconds: float
    propagate_seconds: float
    n_nodes: int
    n_edges: int
    # Stored nonzeros the solve actually visited: the localized solver's
    # exact count, or ``iterations * nnz`` for dense sweeps.
    touched_nnz: int = 0
    spectral_products: int = 0

    @property
    def mode(self) -> str:
        """``"incremental"``, ``"localized"`` or ``"full"``."""
        return self.decision.mode

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of the step."""
        return self.apply_seconds + self.spectral_seconds + self.propagate_seconds


@dataclass
class _PendingDelta:
    """Delta effects applied to the graph but not yet propagated.

    Besides the counts it keeps each delta's ``dW`` as applied (the spectral
    refresh and the localized hint read it) and the revealed nodes.
    """

    edges_changed: int = 0
    nodes_added: int = 0
    labels_revealed: int = 0
    deltas: int = 0
    revealed: list = field(default_factory=list)
    changes: list = field(default_factory=list)

    def absorb(self, delta: GraphDelta, change) -> None:
        self.edges_changed += delta.n_changed_edges
        self.nodes_added += delta.add_nodes
        self.labels_revealed += int(delta.reveal_nodes.shape[0])
        self.deltas += 1
        if delta.reveal_nodes.shape[0]:
            self.revealed.append(np.asarray(delta.reveal_nodes, dtype=np.int64))
        self.changes.append(change)


class StreamingSession:
    """Incremental propagation over one evolving graph.

    Parameters
    ----------
    graph:
        The starting graph.  The session takes ownership and mutates it in
        place (pass ``graph.copy()`` to keep the original).  ``n_classes``
        must be known (labeled graph, or set explicitly).
    propagator:
        A ready :class:`~repro.propagation.linbp.LinBPPropagator` instance
        (echo cancellation optional).  Configure convergence tightly enough
        that warm and full solves both actually converge (e.g.
        ``LinBPPropagator(max_iterations=200, tolerance=1e-8)``); the
        paper's 10-sweep budget stops far from the fixed point, where warm
        and cold runs would disagree.
    compatibility:
        ``k x k`` compatibility matrix, kept as session warm state.
    seed_labels:
        Initially visible labels (full-length vector, ``-1`` hidden).
        Defaults to all hidden; ``reveal`` events add seeds over time.
    full_solve_edge_fraction / radius_drift_tolerance:
        Fallback policy thresholds (see
        :class:`~repro.stream.incremental.IncrementalPropagator`).
    localized / localized_edge_fraction:
        Opt in to residual-push localized solves for steps whose own delta
        is small (see
        :class:`~repro.stream.incremental.IncrementalPropagator`); off by
        default.  Rows off a step's hint start from the previous localized
        solve's carried push residual, so they are *known* to be within
        the tolerance; on the first localized step after a dense warm or
        full solve, and on a step whose epsilon changed, they are trusted
        (seeded as zero).
    strict:
        Delta application strictness (see :func:`repro.stream.delta.apply_delta`).
    spectral_seed:
        Seed of the cold-start Lanczos vector (anchor solves only).
    """

    def __init__(
        self,
        graph: Graph,
        propagator: LinBPPropagator,
        compatibility: np.ndarray | None = None,
        seed_labels: np.ndarray | None = None,
        full_solve_edge_fraction: float = FULL_SOLVE_EDGE_FRACTION,
        radius_drift_tolerance: float = RADIUS_DRIFT_TOLERANCE,
        localized: bool = False,
        localized_edge_fraction: float = LOCALIZED_EDGE_FRACTION,
        strict: bool = True,
        spectral_seed=0,
        registry=None,
        metric_labels: dict | None = None,
    ) -> None:
        if graph.n_classes is None:
            raise ValueError("the session graph must know its number of classes")
        self.graph = graph
        self.incremental = IncrementalPropagator(
            propagator,
            full_solve_edge_fraction=full_solve_edge_fraction,
            radius_drift_tolerance=radius_drift_tolerance,
            localized=localized,
            localized_edge_fraction=localized_edge_fraction,
        )
        if compatibility is None:
            raise ValueError(
                f"{propagator.name} needs a compatibility matrix; pass one to "
                "the session"
            )
        self.compatibility = np.asarray(compatibility, dtype=np.float64)
        if seed_labels is None:
            self.seed_labels = np.full(graph.n_nodes, -1, dtype=np.int64)
        else:
            self.seed_labels = np.asarray(seed_labels, dtype=np.int64).copy()
            if self.seed_labels.shape[0] != graph.n_nodes:
                raise ValueError(
                    f"seed_labels has length {self.seed_labels.shape[0]} for a "
                    f"graph with {graph.n_nodes} nodes"
                )
        self.strict = bool(strict)
        self.spectral_seed = spectral_seed
        # Deltas reject self-loops: ``n_edges`` needs no diagonal pass per step.
        self._self_loops = int(np.count_nonzero(graph.adjacency.diagonal()))
        # Sessions are written by one mutator at a time but may be *read*
        # (beliefs/labels) from other threads — the serving layer answers
        # queries while deltas stream in.  Every public entry point takes
        # this reentrant lock, so a reader can never observe the graph
        # mid-mutation or a belief matrix mid-swap; step() re-enters it
        # through apply() + propagate() without deadlocking.
        self.lock = threading.RLock()
        self.last_result: PropagationResult | None = None
        self.n_steps = 0
        self._pending = _PendingDelta()
        self._spectral: SpectralState | None = None
        self._second = 0.0  # theta_2 of the last cold Lanczos run
        self._anchor_radius: float | None = None
        self._edges_since_anchor = 0
        # Lifetime counts are plain session state, so they keep counting
        # under REPRO_OBS=off; the per-mode solve counts are mirrored into
        # registry counters.  A unique `session` label isolates this
        # session's series; `metric_labels` adds caller dimensions (the
        # serve layer tags the graph name).
        self.mode_counts = {"full": 0, "incremental": 0, "localized": 0}
        self.touched_nnz_total = 0
        self.registry = registry if registry is not None else obs.metrics()
        labels = {"session": f"s{next(_SESSION_IDS)}"}
        if metric_labels:
            labels.update(metric_labels)
        self._mode_counters = {
            mode: self.registry.counter(
                "repro_stream_solves_total",
                "Streaming solves by decision mode.",
                mode=mode, **labels,
            )
            for mode in self.mode_counts
        }
        # M = X^T W X over the seed-labeled subgraph (the paper's l=1
        # statistic) is exact session state like the adjacency it
        # summarizes: seeded here, advanced by every applied delta
        # whether or not obs is on.
        self.counts = neighbor_statistics(
            graph.adjacency, one_hot_labels(self.seed_labels, graph.n_classes)
        )
        # Quality telemetry (prequential accuracy, churn, drift) is pure
        # observation: its hooks run only while obs is enabled and never
        # write anything propagation reads.  The drift gauge reads the
        # counts above, so it starts from the same evidence DCE saw.
        self.quality = obs.QualityMonitor(registry=self.registry, labels=labels)
        if obs.enabled():
            self.quality.refresh_drift(self.counts, self.compatibility)

    # ------------------------------------------------------------- properties
    @property
    def propagator(self) -> LinBPPropagator:
        """The wrapped LinBP instance."""
        return self.incremental.propagator

    # ------------------------------------------------------------------ apply
    def apply(self, delta: GraphDelta) -> float:
        """Mutate the graph by one delta; returns the apply wall time.

        The propagation state is *not* advanced — call :meth:`propagate`
        (or use :meth:`step`, which does both).  Multiple applied deltas
        accumulate into one pending change.

        Thread-safe: the whole mutation runs under the session
        :attr:`lock`, so a concurrent :meth:`beliefs` reader can never
        observe the graph with the adjacency swapped but the labels not yet
        grown (or vice versa).
        """
        with self.lock, obs.span("stream.apply", graph=self.graph.name):
            return self._apply(delta)

    def _apply(self, delta: GraphDelta) -> float:
        start = time.perf_counter()
        # Validate everything before mutating anything: a caller that
        # catches a bad event (e.g. to skip it in a live stream) must find
        # the session exactly as it was.  apply_delta itself is pure — it
        # returns a new adjacency — so it can run before the label updates.
        n_after = self.graph.n_nodes + delta.add_nodes
        n_classes = self.graph.n_classes
        if delta.reveal_nodes.shape[0]:
            if delta.reveal_labels.min() < 0 or delta.reveal_labels.max() >= n_classes:
                raise ValueError(
                    f"revealed labels must be in 0..{n_classes - 1}"
                )
            if delta.reveal_nodes.min() < 0 or delta.reveal_nodes.max() >= n_after:
                raise ValueError("revealed nodes are out of range")
        if delta.node_labels is not None and delta.node_labels.shape[0]:
            if delta.node_labels.min() < -1 or delta.node_labels.max() >= n_classes:
                raise ValueError(
                    f"added-node labels must be -1 (unknown) or in "
                    f"0..{n_classes - 1}"
                )
        application = apply_delta(self.graph.adjacency, delta, strict=self.strict)

        labels_before = self.seed_labels
        if delta.add_nodes:
            new_labels = (
                delta.node_labels
                if delta.node_labels is not None
                else np.full(delta.add_nodes, -1, dtype=np.int64)
            )
            if self.graph.labels is not None:
                self.graph.labels = np.concatenate([self.graph.labels, new_labels])
            labels_before = np.concatenate([
                labels_before, np.full(delta.add_nodes, -1, dtype=np.int64),
            ])
            self.seed_labels = labels_before

        quality = self.quality if obs.enabled() else None
        if delta.reveal_nodes.shape[0]:
            if quality is not None:
                # Prequential scoring: test-then-train.  The *current*
                # beliefs are scored against the incoming labels strictly
                # before those labels become seeds.
                beliefs = (
                    None if self.last_result is None else self.last_result.beliefs
                )
                quality.observe_reveal(
                    beliefs, delta.reveal_nodes, delta.reveal_labels,
                    self.seed_labels,
                )
            self.seed_labels = labels_before.copy()
            self.seed_labels[delta.reveal_nodes] = delta.reveal_labels

        # Swap in the mutated adjacency and evolve the operator cache:
        # explicit invalidation first (no stale normalization can survive),
        # then install the evolved instance carrying the O(n) degree update.
        # Structurally empty deltas (pure label reveals) hand the identical
        # adjacency object back, so the cached normalizations stay valid and
        # the cache is kept as-is.
        if application.adjacency is not self.graph.adjacency:
            old_operators = self.graph.__dict__.get("_operators")
            self.graph.adjacency = application.adjacency
            self.graph.invalidate_operators()
            if old_operators is not None:
                self.graph.set_operators(
                    old_operators.evolve(
                        application.adjacency, delta_degrees=application.delta_degrees
                    )
                )

        update_neighbor_statistics(
            self.counts, application.edge_change, self.graph.adjacency,
            labels_before, self.seed_labels,
        )
        if quality is not None:
            quality.refresh_drift(self.counts, self.compatibility)

        self._pending.absorb(delta, application.edge_change)
        self._edges_since_anchor += delta.n_changed_edges
        return time.perf_counter() - start

    # -------------------------------------------------------------- propagate
    def _refresh_spectral(self, anchor: bool) -> tuple[float | None, int]:
        """Settle ``rho(W)``'s ladder rung and prime it; returns (drift, products).

        An ``anchor`` reruns the cold seeded Lanczos, so a full solve's
        epsilon is the batch epsilon bit for bit, keeps its basis to rebuild
        the carried Ritz pair and takes its second Ritz value as
        ``theta_2``.  Otherwise the carried Ritz pair (already moved over
        the pending ``dW``) is read: when Temple's interval
        ``[theta', theta' + ||r'||^2 / g]``, ``g = TEMPLE_GAP_SHARE *
        (theta' - theta_2)``, fits one rung, ``theta'`` is primed with no
        product, else a warm Lanczos from ``v`` runs until its own interval
        (same ``g``) fits one with ``REFRESH_HEADROOM`` to spare.  Should
        the warm pair's interval still straddle a rung boundary (``rho``
        within rounding of one, as for any integer ``rho``), only the cold
        run gives the batch's rung, so it runs as on an anchor.
        """
        adjacency = self.graph.adjacency
        state = self._spectral
        products = 0
        if not anchor and state is not None:
            radius = state.rayleigh
            gap = TEMPLE_GAP_SHARE * (radius - self._second)
            if ladder_rung(radius, state.residual_sq, gap) is None:
                state = lanczos_spectral_state(
                    adjacency,
                    v0=state.vector,
                    max_steps=WARM_LANCZOS_STEPS,
                    tolerance=WARM_LANCZOS_TOLERANCE,
                    settled=lambda theta, residual: ladder_rung(
                        theta, REFRESH_HEADROOM * residual * residual, gap
                    ) is not None,
                )
                radius, products = state.radius, state.n_steps
                if ladder_rung(state.rayleigh, state.residual_sq, gap) is None:
                    state = None
        if anchor or state is None:
            state = lanczos_spectral_state(
                adjacency,
                max_steps=COLD_LANCZOS_STEPS,
                tolerance=COLD_LANCZOS_TOLERANCE,
                seed=self.spectral_seed,
            )
            radius, self._second = state.radius, state.second
            products += state.n_steps
        self._spectral = state
        self.graph.operators.prime_spectral_radius(radius)
        drift = None
        if self._anchor_radius:
            drift = abs(radius - self._anchor_radius) / self._anchor_radius
        if anchor:
            # Re-anchor: the drift budget restarts from the cold radius.
            self._anchor_radius = radius
        return drift, products

    def _blind_change(self) -> bool:
        """True when a pending ``dW`` entry joins two nodes where ``v`` is 0.

        Those are nodes added since the last refresh: ``v'dWv`` and
        ``dWv`` are zero there, so the carried pair cannot see what the
        entry does to ``rho(W)`` (a clique grown among new nodes), and only
        a cold anchor can.
        """
        state = self._spectral
        return state is not None and any(
            np.any((state.vector[change.row] == 0.0) & (state.vector[change.col] == 0.0))
            for change in self._pending.changes
        )

    def propagate(self, force_full: bool = False) -> StreamStep:
        """Advance the beliefs over everything applied since the last solve.

        Thread-safe: holds the session :attr:`lock` for the whole solve, so
        readers block until the new belief matrix is installed.
        """
        with self.lock:
            return self._propagate(force_full)

    def _propagate(self, force_full: bool = False) -> StreamStep:
        n_edges = (self.graph.adjacency.nnz - self._self_loops) // 2 + self._self_loops
        delta_fraction = delta_edge_fraction(self._edges_since_anchor, n_edges)
        step_fraction = delta_edge_fraction(self._pending.edges_changed, n_edges)
        previous = self.last_result
        if previous is not None:
            previous = self._pad_previous(previous)

        def decide(drift):
            return self.incremental.decide(
                previous, delta_fraction, drift, force_full, step_fraction
            )

        # A pinned epsilon does not depend on rho(W).  Otherwise a step
        # headed for a full solve by its delta budget (or a first or forced
        # solve) anchors the spectral state cold, the others refresh the
        # carried state, and a drift past the tolerance re-anchors.
        drift, spectral_products, spectral_seconds = None, 0, 0.0
        if self.propagator.scaling is None:
            start = time.perf_counter()
            if self._spectral is not None:
                self._spectral.advance(self._pending.changes, self.graph.n_nodes)
            anchor = decide(None).mode == "full" or self._blind_change()
            drift, spectral_products = self._refresh_spectral(anchor)
            if not anchor and decide(drift).mode == "full":
                spectral_products += self._refresh_spectral(anchor=True)[1]
            spectral_seconds = time.perf_counter() - start
        decision = decide(drift)

        start = time.perf_counter()
        with obs.span("stream.propagate", graph=self.graph.name) as solve_span:
            # A localized step without a hint (the previous solve did not
            # converge) seeds its residual densely.
            localized_hint = localized = None
            if decision.mode == "localized":
                localized_hint = self._localized_hint(previous)
                localized = localized_hint or True
            result = self.propagator.propagate(
                self.graph,
                self.seed_labels,
                compatibility=self.compatibility,
                n_classes=self.graph.n_classes,
                warm_start=None if decision.mode == "full" else previous,
                localized=localized,
            )
            solve_span.annotate(mode=decision.mode, reason=decision.reason)
        propagate_seconds = time.perf_counter() - start

        if obs.enabled() and previous is not None:
            # Belief churn: localized solves compare only the trusted
            # frontier (off-frontier rows are provably unchanged there,
            # so this matches a dense comparison on the touched set);
            # dense solves compare every shared row.
            churn_rows = (
                localized_hint.rows
                if decision.mode == "localized" and localized_hint is not None
                else None
            )
            self.quality.observe_churn(
                previous.beliefs, result.beliefs,
                rows=churn_rows, mode=decision.mode,
            )

        if decision.mode == "full":
            # Re-anchor: the delta budget restarts here (the drift budget
            # restarted with the cold spectral refresh).
            self._edges_since_anchor = 0

        if result.details.get("localized"):
            touched_nnz = int(result.details.get("touched_nnz", 0))
        else:
            touched_nnz = int(result.n_iterations) * int(self.graph.adjacency.nnz)
        self.mode_counts[decision.mode] += 1
        self.touched_nnz_total += touched_nnz
        self._mode_counters[decision.mode].inc()

        step = StreamStep(
            index=self.n_steps,
            delta_summary=(
                f"{self._pending.deltas} delta(s): "
                f"{self._pending.edges_changed} edges, "
                f"+{self._pending.nodes_added} nodes, "
                f"{self._pending.labels_revealed} reveals"
            ),
            decision=decision,
            result=result,
            apply_seconds=0.0,
            spectral_seconds=spectral_seconds,
            propagate_seconds=propagate_seconds,
            n_nodes=self.graph.n_nodes,
            n_edges=n_edges,
            touched_nnz=touched_nnz,
            spectral_products=spectral_products,
        )
        self.last_result = result
        self.n_steps += 1
        self._pending = _PendingDelta()
        return step

    def step(self, delta: GraphDelta, force_full: bool = False) -> StreamStep:
        """Apply one delta and propagate: the per-event streaming path.

        Holds the (reentrant) session :attr:`lock` across both halves, so
        no reader can slip in between the mutation and the solve.
        """
        with self.lock, obs.span("stream.step", graph=self.graph.name):
            apply_seconds = self.apply(delta)
            outcome = self.propagate(force_full=force_full)
            outcome.apply_seconds = apply_seconds
            return outcome

    def rehydrate(self, deltas) -> tuple[int, list, StreamStep | None]:
        """Replay a redo log: apply every delta, then propagate once.

        The serving tier uses this to rebuild a session from its durable
        delta queue after an eviction or a worker death — N acknowledged
        deltas are re-applied under one lock hold with a *single* belief
        refresh at the end, not N.  Returns ``(n_applied, errors, step)``
        where ``errors`` holds ``(position, message)`` pairs for deltas
        that no longer apply (a log replayed onto the same base graph in
        the same order should never produce any; entries are surfaced, not
        raised, so one damaged record cannot strand the whole session) and
        ``step`` is the closing solve (None when nothing applied).
        """
        applied = 0
        errors: list[tuple[int, str]] = []
        step: StreamStep | None = None
        with self.lock, obs.span("stream.rehydrate", graph=self.graph.name):
            for position, delta in enumerate(deltas):
                if not isinstance(delta, GraphDelta):
                    delta = GraphDelta.from_dict(delta)
                try:
                    self._apply(delta)
                except (TypeError, ValueError) as exc:
                    errors.append((position, str(exc)))
                    continue
                applied += 1
            if applied:
                step = self._propagate()
        return applied, errors, step

    # ---------------------------------------------------------------- helpers
    def _localized_hint(self, previous: PropagationResult) -> LocalizedHint | None:
        """Rows the pending deltas may have disturbed, or None to dense-seed.

        The hint is a *trust* statement — every row off it must provably
        still satisfy the residual tolerance — so it is only built when the
        previous solve converged.  It covers the endpoints of every changed
        edge plus their current neighbors, and revealed nodes (an added node
        without edges keeps a zero residual).
        """
        if previous is None or not previous.converged:
            return None
        adjacency = self.graph.adjacency
        parts = [np.empty(0, dtype=np.int64), *self._pending.revealed]
        if self._pending.changes:
            touched = np.unique(np.concatenate([c.row for c in self._pending.changes]))
            positions, _, _ = _neighbor_positions(adjacency.indptr, touched)
            parts += [touched, adjacency.indices[positions]]
        return LocalizedHint(rows=np.concatenate(parts))

    def decision_stats(self) -> dict:
        """Cumulative per-mode solve counts and touched-nnz totals."""
        with self.lock:
            return {
                "mode_counts": dict(self.mode_counts),
                "touched_nnz_total": self.touched_nnz_total,
                "localized_enabled": self.incremental.localized,
            }

    def quality_summary(self) -> dict:
        """The quality monitor's rolling view (prequential/churn/drift).

        All zeros / None while ``REPRO_OBS=off`` — the hooks never ran.
        """
        with self.lock:
            return self.quality.summary()

    def _pad_previous(self, previous: PropagationResult) -> PropagationResult:
        """Pad a previous result for nodes added since: zero beliefs, label -1."""
        beliefs, labels = previous.beliefs, previous.labels
        grow = self.graph.n_nodes - beliefs.shape[0]
        if grow == 0:
            return previous
        return replace(
            previous,
            beliefs=np.concatenate((beliefs, np.zeros((grow, beliefs.shape[1]), beliefs.dtype))),
            labels=np.concatenate((labels, np.full(grow, -1, labels.dtype))),
        )

    def beliefs(self) -> np.ndarray | None:
        """Current belief matrix (None before the first propagation).

        Taking the session :attr:`lock` means a reader never sees beliefs
        mid-update; callers that need several reads to be mutually
        consistent (e.g. beliefs *and* the matching graph size) should hold
        ``session.lock`` themselves around the group.
        """
        with self.lock:
            return None if self.last_result is None else self.last_result.beliefs

    def labels(self) -> np.ndarray | None:
        """Current predicted labels (None before the first propagation)."""
        with self.lock:
            return None if self.last_result is None else self.last_result.labels

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"StreamingSession(graph={self.graph.name!r}, n={self.graph.n_nodes}, "
            f"m={self.graph.n_edges}, propagator={self.propagator.name!r}, "
            f"steps={self.n_steps})"
        )

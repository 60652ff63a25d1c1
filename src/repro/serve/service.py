"""The inference service: named warm sessions answering belief queries.

:class:`InferenceService` owns a registry of named
:class:`~repro.stream.session.StreamingSession` objects — one per loaded
graph — and exposes the three serving verbs:

* **load/unload** — materialize a graph (``.npz`` bundle, a runner-store
  record, or a ready :class:`~repro.graph.graph.Graph`), seed it, estimate
  the compatibility matrix, run the anchoring LinBP solve, and keep the
  warm session around;
* **delta** — push one or more :class:`~repro.stream.delta.GraphDelta`
  through the session (one incremental propagation per *batch* of deltas,
  not per delta — the coalescing the micro-batcher exploits);
* **query** — read belief rows for arbitrary node sets straight off the
  session's current :class:`~repro.propagation.engine.PropagationResult`,
  with staleness metadata and an optional per-node top-k ranking.

Consistency model: every operation on one served graph runs under that
session's reentrant lock, so queries see either the belief matrix from
before a concurrent delta or after it — never a half-applied state.  Reads
are *fresh, monotonic* reads: a query submitted after a delta's
acknowledgement always reflects that delta.

Read-your-writes tokens make that contract explicit and portable across
process boundaries: every acknowledged delta returns a **version token**
(the session's ``graph_version`` after that delta's apply), and a query may
carry ``min_version`` — the service propagates lazily if needed and answers
from beliefs covering at least that token, or fails with status 412 when
the token is *ahead* of the session (the fence that detects lost
acknowledged writes after a crash recovery).  With ``queue_dir`` set, every
acknowledged delta is durably appended to a per-session redo log
(:class:`~repro.serve.queue.DeltaQueue`) *before* the acknowledgement, so
acks survive a ``kill -9``: recovery (``load_graph(recover=True)``) or an
LRU-evicted session's transparent reload replays the log and lands back on
the exact version the last token named.  ``max_sessions`` bounds residency:
the least-recently-used reloadable session is evicted to a stub and
rebuilt from source + redo log on its next touch.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.eval.seeding import stratified_seed_labels
from repro.graph.graph import Graph
from repro.propagation.engine import ESTIMATORS
from repro.propagation.linbp import LinBPPropagator
from repro.serve.loader import GraphSourceError, load_serving_graph
from repro.serve.queue import DeltaQueue
from repro.stream.delta import GraphDelta
from repro.stream.session import StreamingSession
from repro.utils.validation import check_integer, check_integers

__all__ = [
    "DeltaBatchResult",
    "InferenceService",
    "QueryResult",
    "ServeError",
    "UnknownGraphError",
]


class ServeError(Exception):
    """A user-facing serving failure; carries the HTTP status to map to."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


class UnknownGraphError(ServeError):
    """The named graph is not loaded."""

    def __init__(self, name: str, loaded: list[str]) -> None:
        listing = ", ".join(sorted(loaded)) if loaded else "none"
        super().__init__(
            f"no graph named {name!r} is loaded (loaded: {listing})", status=404
        )


def _linbp(iterations, tolerance, propagator_kwargs) -> LinBPPropagator:
    """The LinBP a load request asks for; bad ``propagator_kwargs`` are a 400."""
    if propagator_kwargs is None:
        propagator_kwargs = {}
    if not isinstance(propagator_kwargs, dict):
        raise ServeError("propagator_kwargs must be a JSON object")
    iterations, tolerance = int(iterations), float(tolerance)
    try:
        return LinBPPropagator(
            max_iterations=iterations, tolerance=tolerance, **propagator_kwargs
        )
    except (TypeError, ValueError) as exc:
        raise ServeError(f"invalid propagator_kwargs: {exc}") from exc


# ------------------------------------------------------------------- results
@dataclass
class QueryResult:
    """Belief slice for one query, plus the staleness metadata.

    ``staleness`` describes how old the belief snapshot is:
    ``queries_since_refresh`` counts queries answered from it before this
    one (reset to zero by every delta-triggered propagation — the counter
    the benchmark watches), ``snapshot_age_seconds`` its wall-clock age,
    and ``pending_deltas`` deltas applied to the graph but not yet
    propagated (non-zero only between a deferred-ack delta and the
    refresh that covers it).
    """

    name: str
    nodes: np.ndarray
    beliefs: np.ndarray
    labels: np.ndarray
    top: list | None
    graph_version: int
    belief_version: int
    staleness: dict

    def to_dict(self) -> dict:
        return {
            "graph": self.name,
            "nodes": np.asarray(self.nodes).tolist(),
            "beliefs": np.asarray(self.beliefs).tolist(),
            "labels": np.asarray(self.labels).tolist(),
            "top": self.top,
            "graph_version": self.graph_version,
            "belief_version": self.belief_version,
            "staleness": self.staleness,
        }


@dataclass
class DeltaBatchResult:
    """Outcome of one coalesced delta application + single propagation.

    ``n_coalesced`` counts the deltas whose propagation this result's
    belief refresh covers: for a direct ``apply_deltas`` call it equals
    ``n_deltas``; for a per-caller view handed out by the micro-batcher it
    reports how many sibling deltas shared the single propagation while
    ``n_deltas``/``errors`` describe only the caller's own submission.
    """

    name: str
    n_deltas: int
    n_applied: int
    errors: list  # one entry per submitted delta: None or the error message
    mode: str | None  # "incremental" / "full" / None when nothing applied
    reason: str | None
    propagate_seconds: float
    graph_version: int
    belief_version: int
    n_coalesced: int = 0
    # One read-your-writes token per submitted delta: the graph_version its
    # apply landed as (None for rejected deltas).  Passing a token back as a
    # query's min_version guarantees the answer reflects that delta.
    tokens: list = field(default_factory=list)
    # False when the acknowledgement was returned before the belief refresh
    # (deferred-ack mode); the refresh happens on the next flush or query.
    propagated: bool = True

    @property
    def token(self):
        """The batch's highest token (convenience for single-delta calls)."""
        accepted = [t for t in self.tokens if t is not None]
        return accepted[-1] if accepted else None

    def scoped_to_one(self, position: int = 0) -> "DeltaBatchResult":
        """A per-caller view of one applied delta from a coalesced batch."""
        token = (
            self.tokens[position] if 0 <= position < len(self.tokens) else None
        )
        return DeltaBatchResult(
            name=self.name,
            n_deltas=1,
            n_applied=1,
            errors=[None],
            mode=self.mode,
            reason=self.reason,
            propagate_seconds=self.propagate_seconds,
            graph_version=self.graph_version,
            belief_version=self.belief_version,
            n_coalesced=self.n_coalesced,
            tokens=[token],
            propagated=self.propagated,
        )

    def to_dict(self) -> dict:
        return {
            "graph": self.name,
            "n_deltas": self.n_deltas,
            "n_applied": self.n_applied,
            "errors": self.errors,
            "mode": self.mode,
            "reason": self.reason,
            "propagate_seconds": self.propagate_seconds,
            "graph_version": self.graph_version,
            "belief_version": self.belief_version,
            "n_coalesced": self.n_coalesced,
            "tokens": self.tokens,
            "token": self.token,
            "propagated": self.propagated,
        }


# -------------------------------------------------------------- served graph
class _ServedGraph:
    """One named session plus its version counters and tallies.

    Every count here is a plain integer — the consistency tokens
    (``graph_version``, ``belief_version``), the staleness counters and
    the query/delta tallies — so all of them keep counting under
    ``REPRO_OBS=off``; solve counts are the session's own ``mode_counts``.
    The query and delta tallies are mirrored into registry counters,
    labeled by graph name, for ``/metrics``.
    """

    def __init__(self, name: str, session: StreamingSession, source: dict,
                 registry=None) -> None:
        self.name = name
        self.session = session
        self.source = source
        self.registry = registry if registry is not None else obs.metrics()
        self.created_at = time.time()
        self.graph_version = 0  # deltas applied since load
        self.belief_version = 0  # completed propagations (anchor included)
        # graph_version the current belief matrix covers; < graph_version
        # while deferred-ack deltas await their propagation.
        self.propagated_version = 0
        self.queries_since_refresh = 0  # reset by every belief refresh
        self.last_solve_monotonic = time.monotonic()
        # LRU bookkeeping (written by the service under its registry lock):
        # last_used is a monotonic use counter, load_state everything needed
        # to rebuild the session from source without re-estimation (None for
        # graphs loaded from a ready instance — those cannot be evicted),
        # evicted flips when the session leaves the registry so in-flight
        # holders of this object retry instead of writing into a ghost.
        self.last_used = 0
        self.load_state: dict | None = None
        self.evicted = False
        self.n_queries = 0
        self.n_deltas = 0
        self._c_queries = self.registry.counter(
            "repro_serve_queries_total", "Queries answered per served graph.",
            graph=name,
        )
        self._c_deltas = self.registry.counter(
            "repro_serve_deltas_total", "Deltas accepted per served graph.",
            graph=name,
        )

    @property
    def n_incremental(self) -> int:
        return self.session.mode_counts["incremental"]

    @property
    def n_localized(self) -> int:
        return self.session.mode_counts["localized"]

    @property
    def n_full(self) -> int:
        return self.session.mode_counts["full"]

    @property
    def n_solves(self) -> int:
        return sum(self.session.mode_counts.values())

    # Callers hold session.lock for everything below.
    def record_queries(self, n_answered: int) -> None:
        self.n_queries += n_answered
        self._c_queries.inc(n_answered)
        self.queries_since_refresh += n_answered

    def record_deltas(self, n_applied: int) -> None:
        self.n_deltas += n_applied
        self._c_deltas.inc(n_applied)

    def record_solve(self) -> None:
        self.belief_version += 1
        self.propagated_version = self.graph_version
        self.last_solve_monotonic = time.monotonic()
        self.queries_since_refresh = 0

    def staleness(self) -> dict:
        return {
            "queries_since_refresh": self.queries_since_refresh,
            "snapshot_age_seconds": time.monotonic() - self.last_solve_monotonic,
            "pending_deltas": self.graph_version - self.propagated_version,
        }

    def info(self) -> dict:
        graph = self.session.graph
        return {
            "name": self.name,
            "source": self.source,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_classes": graph.n_classes,
            "propagator": self.session.propagator.name,
            "n_seeds": int(np.sum(self.session.seed_labels >= 0)),
            "graph_version": self.graph_version,
            "belief_version": self.belief_version,
            "propagated_version": self.propagated_version,
            "resident": True,
            "reloadable": self.load_state is not None,
            "n_queries": self.n_queries,
            "n_deltas": self.n_deltas,
            "n_solves": self.n_solves,
            "n_incremental": self.n_incremental,
            "n_localized": self.n_localized,
            "n_full": self.n_full,
            "decisions": self.session.decision_stats(),
            "staleness": self.staleness(),
        }


# ------------------------------------------------------------------- service
class InferenceService:
    """Registry of served graphs behind the query/delta/load verbs.

    Parameters
    ----------
    strict_deltas:
        Delta application strictness forwarded to every session (lenient
        mode tolerates duplicate adds / absent removals in noisy feeds).
    registry:
        The :class:`~repro.obs.MetricsRegistry` carrying this service's
        per-graph telemetry; defaults to the process-global registry
        (``repro.obs.metrics()``).  Loading a graph resets that graph
        name's series, so per-graph counters always start at zero.
    max_sessions:
        Bound on *resident* sessions.  Loading past the bound evicts the
        least-recently-used reloadable session down to a stub; its next
        touch transparently rebuilds it from source (plus the redo-log
        replay when ``queue_dir`` is set).  ``None`` (default) keeps
        everything resident.  Sessions loaded from a ready graph instance,
        or carrying unlogged deltas (no queue), are never evicted.
    queue_dir:
        Directory for the per-session durable delta queues
        (:class:`~repro.serve.queue.DeltaQueue`).  Every acknowledged
        delta hits disk before its ack, so ``load_graph(recover=True)``
        after a worker kill replays the log and loses nothing.  ``None``
        disables durability (and with it deferred-ack crash safety).
    """

    def __init__(
        self,
        strict_deltas: bool = True,
        registry=None,
        max_sessions: int | None = None,
        queue_dir=None,
    ) -> None:
        self.strict_deltas = bool(strict_deltas)
        self.registry = registry if registry is not None else obs.metrics()
        self.started_at = time.time()
        self.max_sessions = None if max_sessions is None else int(max_sessions)
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.queue = DeltaQueue(queue_dir) if queue_dir is not None else None
        self._graphs: dict[str, _ServedGraph] = {}
        self._evicted: dict[str, dict] = {}  # name -> reload stub
        self._registry_lock = threading.RLock()
        self._use_counter = itertools.count(1)
        self._reload_locks: dict[str, threading.Lock] = {}
        self.evictions = 0  # sessions evicted to a reload stub
        self.reloads = 0  # evicted sessions rebuilt on touch

    # ------------------------------------------------------------- registry
    def graph_names(self) -> list[str]:
        """Every loaded session name, resident or evicted-to-stub."""
        with self._registry_lock:
            return sorted(set(self._graphs) | set(self._evicted))

    def _served(self, name: str) -> _ServedGraph:
        """The resident session for ``name``, reloading an evicted stub.

        Touch accounting happens here: every access refreshes the LRU
        position, so the eviction policy sees queries and deltas alike.
        """
        while True:
            with self._registry_lock:
                served = self._graphs.get(name)
                if served is not None:
                    served.last_used = next(self._use_counter)
                    return served
                if name not in self._evicted:
                    raise UnknownGraphError(name, self.graph_names())
            self._reload(name)

    @contextmanager
    def _locked(self, name: str):
        """A resident session with its lock held, retrying across evictions.

        The gap between :meth:`_served` returning and the session lock
        being acquired can race an eviction (or an unload): the object is
        then a ghost no longer in the registry, and writes to it would be
        silently lost.  The ``evicted`` flag — flipped under the session
        lock — makes the race detectable; detection retries through
        :meth:`_served`, which reloads or raises.
        """
        while True:
            served = self._served(name)
            with served.session.lock:
                if served.evicted:
                    continue
                yield served
                return

    def load_graph(
        self,
        name: str,
        *,
        path=None,
        store=None,
        run_hash: str | None = None,
        graph: Graph | None = None,
        propagator_kwargs: dict | None = None,
        method: str = "GS",
        method_kwargs: dict | None = None,
        compatibility=None,
        seed_labels=None,
        fraction: float = 0.05,
        seed: int = 0,
        iterations: int = 300,
        tolerance: float = 1e-8,
        localized: bool = False,
        replace: bool = False,
        recover: bool = False,
    ) -> dict:
        """Load a graph under ``name`` and run its anchoring full solve.

        The graph comes from exactly one of ``path`` (``.npz`` bundle),
        ``store`` + ``run_hash`` (runner-store record), or ``graph`` (a
        ready instance, which the session takes ownership of).  Unless
        ``seed_labels`` is given, seeds are drawn stratified from the
        graph's ground-truth labels at ``fraction``; unless
        ``compatibility`` is given, the matrix is estimated with the
        registered ``method``.  The session runs
        :class:`~repro.propagation.linbp.LinBPPropagator` with
        ``propagator_kwargs`` as extra constructor arguments (e.g.
        ``{"echo_cancellation": true}``); its sweep cap and tolerance come
        from ``iterations`` and ``tolerance``.  ``localized=True`` opts the
        session into residual-push localized solves for small deltas.
        Returns the loaded graph's info dict.

        With a durable queue attached, a fresh load **drops** any redo log
        a previous same-named session left behind (the log described that
        session, not this one), while ``recover=True`` **replays** it after
        the anchoring solve — the re-placement path a router takes when a
        worker died: the rebuilt session lands on the exact graph version
        the dead worker's last acknowledgement named.
        """
        if not name or "/" in name:
            raise ServeError(f"invalid graph name {name!r} (non-empty, no '/')")
        with self._registry_lock:
            # Fail the common operator error before the expensive part
            # (graph build + estimation + anchoring solve); the
            # registration below re-checks under the lock for the race
            # where two loads of the same name overlap.
            if name in self._graphs and not replace:
                raise ServeError(
                    f"a graph named {name!r} is already loaded "
                    "(pass replace=true to swap it)", status=409,
                )
        propagator = _linbp(iterations, tolerance, propagator_kwargs)
        if graph is None:
            try:
                graph = load_serving_graph(path=path, store=store, run_hash=run_hash)
            except GraphSourceError as exc:
                raise ServeError(str(exc)) from exc
        elif path is not None or store is not None:
            raise ServeError("pass either a ready graph or a source, not both")
        source = {
            "path": None if path is None else str(path),
            "store": None if store is None else str(store),
            "hash": run_hash,
        }

        if graph.n_classes is None:
            raise ServeError(f"graph for {name!r} does not know its class count")
        if seed_labels is None:
            if graph.labels is None:
                raise ServeError(
                    f"graph for {name!r} carries no ground-truth labels; "
                    "pass explicit seed_labels"
                )
            seed_labels = stratified_seed_labels(
                graph.require_labels(), fraction=float(fraction), rng=int(seed)
            )
        else:
            seed_labels = np.asarray(seed_labels, dtype=np.int64)

        if compatibility is None:
            compatibility = self._estimate_compatibility(
                graph, seed_labels, method, method_kwargs, int(seed)
            )

        # Everything a reload needs to rebuild this session *without*
        # re-estimation or re-seeding: the frozen seed labels and
        # compatibility make the rebuild bit-deterministic, the source
        # fields make it possible at all.  Ready-graph loads get None — the
        # instance is the only copy, so the session can never be evicted.
        load_state = None
        if source["path"] is not None or source["store"] is not None:
            load_state = {
                "path": source["path"],
                "store": source["store"],
                "run_hash": run_hash,
                "propagator_kwargs": dict(propagator_kwargs or {}),
                "iterations": int(iterations),
                "tolerance": float(tolerance),
                "localized": bool(localized),
                "seed_labels": np.array(seed_labels, dtype=np.int64, copy=True),
                "compatibility": (
                    None if compatibility is None
                    else np.array(compatibility, dtype=np.float64, copy=True)
                ),
            }

        # A (re)loaded graph starts its telemetry from zero: drop any series
        # a previous same-named load left on the registry *before* the new
        # session registers its own.
        self.registry.reset_children(graph=name)
        session = StreamingSession(
            graph,
            propagator,
            compatibility=compatibility,
            seed_labels=seed_labels,
            localized=bool(localized),
            strict=self.strict_deltas,
            registry=self.registry,
            metric_labels={"graph": name},
        )
        served = _ServedGraph(name, session, source, self.registry)
        served.load_state = load_state
        with session.lock, obs.span("serve.load", graph=name, recover=recover):
            session.propagate()
            served.record_solve()
            if self.queue is not None:
                if recover:
                    self._replay_queue(served)
                else:
                    # A fresh load owns the name: any redo log left by a
                    # previous same-named session describes dead state.
                    self.queue.drop(name)

        with self._registry_lock:
            if name in self._graphs and not replace:
                raise ServeError(
                    f"a graph named {name!r} is already loaded "
                    "(pass replace=true to swap it)", status=409,
                )
            self._evicted.pop(name, None)
            self._graphs[name] = served
            served.last_used = next(self._use_counter)
        self._maybe_evict(keep=name)
        return served.info()

    def _replay_queue(self, served: _ServedGraph) -> int:
        """Replay a session's redo log onto its freshly anchored session.

        Restores ``graph_version`` to the last logged sequence number —
        the exact value the last pre-crash acknowledgement handed out as a
        token — so read-your-writes fences keep holding across the
        recovery.  Caller holds the session lock.
        """
        entries = self.queue.replay(served.name)
        if not entries:
            return 0
        applied, errors, step = served.session.rehydrate(
            [delta for _, delta in entries]
        )
        served.graph_version = entries[-1][0]
        served.record_deltas(applied)
        # rehydrate() already propagated; stamp the solve so the belief
        # version advances and propagated_version covers the replay.
        if step is not None:
            served.record_solve()
        if errors:  # should be impossible: same base graph, same order
            self.registry.counter(
                "repro_serve_replay_errors_total",
                "Redo-log deltas that failed to re-apply during recovery.",
                graph=served.name,
            ).inc(len(errors))
        return applied

    @staticmethod
    def _estimate_compatibility(
        graph: Graph, seed_labels, method: str, method_kwargs, seed: int
    ):
        if method not in ESTIMATORS:
            raise ServeError(
                f"unknown estimator {method!r}; valid: "
                f"{', '.join(sorted(ESTIMATORS))}"
            )
        cls = ESTIMATORS[method]
        kwargs = dict(method_kwargs or {})
        accepted = inspect.signature(cls.__init__).parameters
        if "seed" in accepted and "seed" not in kwargs:
            kwargs["seed"] = seed
        try:
            estimation = cls(**kwargs).fit(graph, seed_labels)
        except Exception as exc:
            raise ServeError(
                f"compatibility estimation with {method} failed: {exc}"
            ) from exc
        return estimation.compatibility

    # ----------------------------------------------------- eviction / reload
    def _evictable(self, served: _ServedGraph) -> bool:
        """Can this session be dropped without losing acknowledged state?

        Needs a reload recipe (``load_state``), and either a durable queue
        covering its deltas or no deltas at all — evicting unlogged deltas
        would silently violate every token already handed out.
        """
        return served.load_state is not None and (
            self.queue is not None or served.graph_version == 0
        )

    def _maybe_evict(self, keep: str | None = None) -> None:
        """Enforce ``max_sessions`` by evicting LRU reloadable sessions."""
        if self.max_sessions is None:
            return
        while True:
            with self._registry_lock:
                if len(self._graphs) <= self.max_sessions:
                    return
                candidates = [
                    served for served_name, served in self._graphs.items()
                    if served_name != keep and self._evictable(served)
                ]
                if not candidates:
                    return  # over budget but nothing is safely evictable
                victim = min(candidates, key=lambda served: served.last_used)
                victim_name = victim.name
            if not self._evict(victim_name):
                return

    def _evict(self, name: str) -> bool:
        """Demote one resident session to a reload stub.

        Takes the session lock *inside* the registry lock (the same order
        as :meth:`unload`), so in-flight operations on the victim finish
        first and later ones — which re-check ``evicted`` under the session
        lock — retry into a transparent reload.
        """
        with self._registry_lock:
            served = self._graphs.get(name)
            if served is None or not self._evictable(served):
                return False
            with served.session.lock:
                served.evicted = True
                del self._graphs[name]
                self._evicted[name] = {
                    "load_state": served.load_state,
                    "source": dict(served.source),
                    "graph_version": served.graph_version,
                    "evicted_at": time.time(),
                }
            # The stub keeps no series alive; telemetry restarts from zero
            # on reload, like any (re)load.  Counter consumers (the
            # time-series recorder, federation) already clamp resets.
            self.registry.reset_children(graph=name)
            self.evictions += 1
        return True

    def _reload_lock(self, name: str) -> threading.Lock:
        with self._registry_lock:
            return self._reload_locks.setdefault(name, threading.Lock())

    def _reload(self, name: str) -> None:
        """Rebuild an evicted session from its stub (source + redo log).

        Serialized per name so concurrent touches pay for one rebuild; the
        rebuild itself runs outside the registry lock — other sessions keep
        serving while this one warms back up.
        """
        with self._reload_lock(name):
            with self._registry_lock:
                if name in self._graphs:
                    return  # another touch already reloaded it
                stub = self._evicted.get(name)
                if stub is None:
                    raise UnknownGraphError(name, self.graph_names())
            state = stub["load_state"]
            with obs.span("serve.reload", graph=name):
                try:
                    graph = load_serving_graph(
                        path=state["path"],
                        store=state["store"],
                        run_hash=state["run_hash"],
                    )
                except GraphSourceError as exc:
                    raise ServeError(
                        f"could not reload evicted session {name!r}: {exc}",
                        status=503,
                    ) from exc
                propagator = _linbp(
                    state["iterations"], state["tolerance"],
                    state["propagator_kwargs"],
                )
                self.registry.reset_children(graph=name)
                session = StreamingSession(
                    graph,
                    propagator,
                    compatibility=state["compatibility"],
                    seed_labels=state["seed_labels"],
                    localized=state["localized"],
                    strict=self.strict_deltas,
                    registry=self.registry,
                    metric_labels={"graph": name},
                )
                served = _ServedGraph(
                    name, session, dict(stub["source"]), self.registry
                )
                served.load_state = state
                with session.lock:
                    session.propagate()
                    served.record_solve()
                    if self.queue is not None:
                        self._replay_queue(served)
            with self._registry_lock:
                self._evicted.pop(name, None)
                self._graphs[name] = served
                served.last_used = next(self._use_counter)
                self.reloads += 1
        self._maybe_evict(keep=name)

    def unload(self, name: str) -> dict:
        """Drop a served graph; returns its final info dict."""
        with self._registry_lock:
            stub = self._evicted.pop(name, None)
            if stub is not None:
                # An evicted session unloads without being reloaded first.
                if self.queue is not None:
                    self.queue.drop(name)
                return {
                    "name": name,
                    "source": stub["source"],
                    "graph_version": stub["graph_version"],
                    "resident": False,
                }
            served = self._served(name)
            with served.session.lock:  # a consistent final snapshot
                info = served.info()
                served.evicted = True  # in-flight holders retry -> 404
            del self._graphs[name]
            if self.queue is not None:
                self.queue.drop(name)
            # Bound series cardinality: an unloaded graph stops exporting.
            self.registry.reset_children(graph=name)
        return info

    def info(self, name: str) -> dict:
        served = self._served(name)
        with served.session.lock:
            return served.info()

    def graph_stats(self, name: str) -> dict:
        """Solve-decision statistics for one served graph.

        Reports the per-mode solve counts (full / incremental / localized)
        and the cumulative stored-nonzeros the solves visited — the
        observability slice of the localized subsystem.
        """
        served = self._served(name)
        with served.session.lock:
            return {
                "graph": name,
                "n_solves": served.n_solves,
                "n_incremental": served.n_incremental,
                "n_localized": served.n_localized,
                "n_full": served.n_full,
                **served.session.decision_stats(),
            }

    def graph_quality(self, name: str) -> dict:
        """Model-quality telemetry for one served graph.

        The session's :class:`~repro.obs.quality.QualityMonitor` view:
        prequential (test-then-train) accuracy against revealed labels,
        belief churn, and the compatibility-drift gauge.  All-zero while ``REPRO_OBS=off``.
        """
        served = self._served(name)
        return {"graph": name, **served.session.quality_summary()}

    # -------------------------------------------------------------- queries
    @staticmethod
    def _validated(check, value, name: str):
        """``check(value, name)`` with its ``ValueError`` as a 400."""
        try:
            return check(value, name)
        except ValueError as exc:
            raise ServeError(str(exc)) from exc

    @classmethod
    def _check_nodes(cls, nodes, n_nodes: int) -> np.ndarray:
        nodes = cls._validated(check_integers, nodes, "query nodes").ravel()
        if nodes.size == 0:
            raise ServeError("query needs at least one node")
        if nodes.min() < 0 or nodes.max() >= n_nodes:
            raise ServeError(
                f"query nodes must be in 0..{n_nodes - 1} "
                f"(got min {nodes.min()}, max {nodes.max()})"
            )
        return nodes

    def query(
        self, name: str, nodes, top_k: int | None = None,
        min_version: int | None = None,
    ) -> QueryResult:
        """Answer one query; equivalent to ``query_many`` with one request."""
        result = self.query_many(name, [(nodes, top_k, min_version)])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def query_many(
        self, name: str, requests: list
    ) -> list[QueryResult | Exception]:
        """Answer many queries under one lock with one vectorized lookup.

        ``requests`` is a list of ``(nodes, top_k)`` pairs or
        ``(nodes, top_k, min_version)`` triples.  All valid requests are
        gathered from the belief matrix in a single fancy-index and (when
        any request wants a ranking) a single arg-sort, so a caller holding
        many node sets pays one lock round-trip.  Returns one
        :class:`QueryResult` **or** :class:`ServeError` per request, in
        order; per-request failures never poison their batch siblings.

        Read-your-writes: deltas acknowledged in deferred mode may leave
        the belief snapshot behind the graph — queries trigger the lazy
        propagation here, so every answer reflects every acknowledged
        delta.  A ``min_version`` token *ahead* of the session's
        ``graph_version`` fails that request with status 412: the fence
        that turns a lost acknowledged write (impossible while the durable
        queue is intact) into a loud error instead of a silently stale
        read.
        """
        with self._locked(name) as served, obs.span(
            "serve.query", graph=name, n_requests=len(requests)
        ):
            # Lazy refresh: deferred-ack deltas are propagated at the first
            # read that could observe them (one solve covers all of them).
            if served.propagated_version < served.graph_version:
                served.session.propagate()
                served.record_solve()
            result = served.session.last_result
            if result is None:  # pragma: no cover - load always anchors
                raise ServeError(f"graph {name!r} has no beliefs yet", status=503)
            beliefs = result.beliefs
            labels = result.labels
            n_nodes = served.session.graph.n_nodes
            n_classes = beliefs.shape[1]
            version = served.belief_version

            outputs: list[QueryResult | Exception | None] = [None] * len(requests)
            valid: list[tuple[int, np.ndarray, int | None]] = []
            for position, request in enumerate(requests):
                nodes, top_k = request[0], request[1]
                min_version = request[2] if len(request) > 2 else None
                try:
                    if min_version is not None:
                        min_version = self._validated(
                            check_integer, min_version, "min_version"
                        )
                        if min_version > served.graph_version:
                            raise ServeError(
                                f"read-your-writes fence: min_version "
                                f"{min_version} is ahead of graph "
                                f"{name!r} at version "
                                f"{served.graph_version} — the token "
                                "belongs to a different load, or the "
                                "session lost acknowledged writes",
                                status=412,
                            )
                    node_array = self._check_nodes(nodes, n_nodes)
                    if top_k is not None:
                        top_k = self._validated(check_integer, top_k, "top_k")
                        if not 1 <= top_k <= n_classes:
                            raise ServeError(
                                f"top_k must be in 1..{n_classes}, got {top_k}"
                            )
                except ServeError as exc:
                    outputs[position] = exc
                    continue
                valid.append((position, node_array, top_k))

            if valid:
                gathered_nodes = np.concatenate([nodes for _, nodes, _ in valid])
                gathered_beliefs = beliefs[gathered_nodes]
                gathered_labels = labels[gathered_nodes]
                wants_ranking = any(top_k is not None for _, _, top_k in valid)
                order = (
                    np.argsort(-gathered_beliefs, axis=1, kind="stable")
                    if wants_ranking
                    else None
                )
                offset = 0
                for position, node_array, top_k in valid:
                    span = slice(offset, offset + node_array.shape[0])
                    offset += node_array.shape[0]
                    top = None
                    if top_k is not None:
                        ranks = order[span, :top_k]
                        scores = np.take_along_axis(
                            gathered_beliefs[span], ranks, axis=1
                        )
                        top = [
                            [[int(cls), float(score)]
                             for cls, score in zip(row_ranks, row_scores)]
                            for row_ranks, row_scores in zip(ranks, scores)
                        ]
                    outputs[position] = QueryResult(
                        name=name,
                        nodes=node_array,
                        beliefs=gathered_beliefs[span].copy(),
                        labels=gathered_labels[span].copy(),
                        top=top,
                        graph_version=served.graph_version,
                        belief_version=version,
                        staleness=served.staleness(),
                    )

            n_answered = sum(
                1 for out in outputs if isinstance(out, QueryResult)
            )
            served.record_queries(n_answered)
            return outputs

    # --------------------------------------------------------------- deltas
    def apply_delta(
        self, name: str, delta: GraphDelta, propagate: bool = True,
        delta_id: str | None = None,
    ) -> DeltaBatchResult:
        """Apply one delta (raising on rejection); one propagation follows."""
        outcome = self.apply_deltas(
            name, [delta], propagate=propagate, delta_ids=[delta_id]
        )
        if outcome.errors[0] is not None:
            raise ServeError(f"delta rejected: {outcome.errors[0]}")
        return outcome

    def apply_deltas(
        self, name: str, deltas: list, propagate: bool = True,
        delta_ids: list | None = None,
    ) -> DeltaBatchResult:
        """Apply a batch of deltas with a *single* incremental propagation.

        Each delta is validated and applied individually — a rejected one
        (strict-mode duplicate edge, out-of-range node ...) is reported in
        ``errors`` without blocking the rest.  The belief refresh happens
        once at the end, which is exactly the coalescing win: N concurrent
        deltas cost one propagation instead of N.

        Each accepted delta's apply order becomes its read-your-writes
        token in ``tokens``; with a durable queue attached, the delta is
        on disk *before* this method returns (the token is a durability
        receipt, not just an ordering one).  ``propagate=False`` defers
        the belief refresh — the acknowledgement returns as soon as the
        deltas are applied and durable; the refresh runs at the next
        eager-mode batch or lazily at the next query, so read-your-writes
        still holds.  ``delta_ids`` makes retries idempotent: an id the
        durable queue has already logged is acknowledged with its original
        token instead of being applied twice (a router re-sending after a
        worker death cannot double-apply).
        """
        if delta_ids is not None and len(delta_ids) != len(deltas):
            raise ServeError(
                f"delta_ids length {len(delta_ids)} != deltas length "
                f"{len(deltas)}"
            )
        with self._locked(name) as served, obs.span(
            "serve.delta", graph=name, n_deltas=len(deltas)
        ) as delta_span:
            errors: list[str | None] = []
            tokens: list[int | None] = []
            n_applied = 0
            for position, delta in enumerate(deltas):
                delta_id = delta_ids[position] if delta_ids else None
                if self.queue is not None and delta_id is not None:
                    seq = self.queue.seen(name, delta_id)
                    if seq is not None:
                        # Idempotent retry: already durable and applied.
                        errors.append(None)
                        tokens.append(seq)
                        continue
                if not isinstance(delta, GraphDelta):
                    try:
                        delta = GraphDelta.from_dict(delta)
                    except (TypeError, ValueError) as exc:
                        errors.append(str(exc))
                        tokens.append(None)
                        continue
                try:
                    served.session.apply(delta)
                except (TypeError, ValueError) as exc:
                    errors.append(str(exc))
                    tokens.append(None)
                    continue
                served.graph_version += 1
                if self.queue is not None:
                    # Durable before acknowledged: the log must agree with
                    # the session (seq == graph_version) so recovery lands
                    # on the exact version the token names.
                    self.queue.append(
                        name, delta.to_dict(), delta_id=delta_id
                    )
                errors.append(None)
                tokens.append(served.graph_version)
                n_applied += 1
                served.record_deltas(1)
            mode = reason = None
            propagate_seconds = 0.0
            propagated = False
            if n_applied and propagate:
                step = served.session.propagate()
                mode, reason = step.mode, step.decision.reason
                propagate_seconds = step.propagate_seconds
                served.record_solve()
                propagated = True
            elif n_applied:
                reason = "deferred"
            if obs.enabled():
                # Quality attributes on the delta trace: the prequential
                # score of this batch's reveals and the post-apply drift,
                # so a sampled trace of a bad batch carries its own
                # quality context.
                monitor = served.session.quality
                delta_span.annotate(
                    prequential_last_accuracy=monitor.last_accuracy,
                    prequential_scored=monitor.scored,
                    drift=monitor.last_drift,
                    churn_flips_total=monitor.flips_total,
                )
            return DeltaBatchResult(
                name=name,
                n_deltas=len(deltas),
                n_applied=n_applied,
                errors=errors,
                mode=mode,
                reason=reason,
                propagate_seconds=propagate_seconds,
                graph_version=served.graph_version,
                belief_version=served.belief_version,
                n_coalesced=len(deltas),
                tokens=tokens,
                propagated=propagated,
            )

    # --------------------------------------------------------------- health
    def health(self) -> dict:
        """Per-graph liveness for ``GET /healthz``.

        A graph is *live* once its session holds a belief matrix (the
        anchoring solve completed and queries can be answered).  The
        session lock is probed, never waited on: a session mid-propagation
        is busy, not dead, and the health probe must answer immediately
        either way.
        """
        with self._registry_lock:
            served_list = list(self._graphs.values())
            stubs = {name: dict(stub) for name, stub in self._evicted.items()}
        graphs = {}
        for served in served_list:
            locked = served.session.lock.acquire(blocking=False)
            try:
                graphs[served.name] = {
                    "live": served.session.last_result is not None,
                    "busy": not locked,
                    "resident": True,
                    "graph_version": served.graph_version,
                    "belief_version": served.belief_version,
                    "staleness": served.staleness(),
                }
            finally:
                if locked:
                    served.session.lock.release()
        for name, stub in stubs.items():
            # Evicted-to-stub sessions are healthy but cold: their state is
            # fully recoverable (source + redo log), they just are not
            # holding memory right now.
            graphs[name] = {
                "live": True,
                "busy": False,
                "resident": False,
                "graph_version": stub["graph_version"],
            }
        return graphs

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Service-wide stats: per-graph info plus global tallies."""
        with self._registry_lock:
            served_list = list(self._graphs.values())
            stubs = {name: dict(stub) for name, stub in self._evicted.items()}
        graphs = {}
        for served in served_list:
            with served.session.lock:
                graphs[served.name] = served.info()
        stats = {
            "uptime_seconds": time.time() - self.started_at,
            "n_graphs": len(graphs) + len(stubs),
            "n_resident": len(graphs),
            "n_evicted": len(stubs),
            "max_sessions": self.max_sessions,
            "evictions": self.evictions,
            "reloads": self.reloads,
            "durable_queue": (
                None if self.queue is None else str(self.queue.directory)
            ),
            "n_queries": sum(info["n_queries"] for info in graphs.values()),
            "n_deltas": sum(info["n_deltas"] for info in graphs.values()),
            "n_solves": sum(info["n_solves"] for info in graphs.values()),
            "graphs": graphs,
        }
        for name, stub in stubs.items():
            stats["graphs"][name] = {
                "name": name,
                "source": stub["source"],
                "graph_version": stub["graph_version"],
                "resident": False,
                "n_queries": 0, "n_deltas": 0, "n_solves": 0,
            }
        return stats

    def quality(self) -> dict:
        """Quality telemetry for every resident graph plus a rollup.

        The rollup pools the prequential counts (so its accuracy is the
        example-weighted mean) and takes the worst (max) drift — one
        badly drifting graph should dominate the instance-level signal,
        not be averaged away.
        """
        with self._registry_lock:
            served_list = list(self._graphs.values())
        graphs = {}
        scored = correct = 0
        drift_values = []
        for served in served_list:
            summary = served.session.quality_summary()
            graphs[served.name] = summary
            scored += summary["prequential"]["scored"]
            correct += summary["prequential"]["correct"]
            drift = summary["drift"]["value"]
            if drift is not None:
                drift_values.append(drift)
        return {
            "graphs": graphs,
            "scored": scored,
            "correct": correct,
            "accuracy": (correct / scored) if scored else None,
            "max_drift": max(drift_values) if drift_values else None,
        }

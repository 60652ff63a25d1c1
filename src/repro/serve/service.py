"""The inference service: named warm sessions answering belief queries.

:class:`InferenceService` owns a registry of named
:class:`~repro.stream.session.StreamingSession` objects — one per loaded
graph — and exposes the three serving verbs:

* **load/unload** — materialize a graph (``.npz`` bundle, a runner-store
  record, or a ready :class:`~repro.graph.graph.Graph`), seed it, estimate
  the compatibility matrix, run the anchoring LinBP solve, and keep the
  warm session around;
* **delta** — push one or more :class:`~repro.stream.delta.GraphDelta`
  through the session in two halves: apply and log every delta, then run
  one incremental propagation for the whole *batch* and publish it (the
  coalescing the micro-batcher exploits);
* **query** — read belief rows for arbitrary node sets off the graph's
  published :class:`BeliefSnapshot`, with staleness metadata and an
  optional per-node top-k ranking.

Consistency model: every propagation ends by publishing one immutable
snapshot — read-only belief and label arrays plus the ``graph_version``
they cover.  Deltas run under the session's lock; queries read the
current snapshot reference and never take that lock, so a belief gather
never waits out a solve.  A query without a token reads the latest
published snapshot: deltas acknowledged ``"propagated"`` are visible to
it, deltas acknowledged ``"applied"`` only once the propagation that
follows them has published.

Read-your-writes tokens make the contract explicit and portable across
process boundaries: every acknowledged delta returns a **version token**
(the session's ``graph_version`` after that delta's apply), and a query may
carry ``min_version``.  A token the snapshot does not cover yet waits for
the publish that covers it (at most ``FENCE_WAIT_SECONDS``, then status
503); a token *ahead* of ``graph_version`` fails with status 412 — the
fence that detects lost acknowledged writes after a crash recovery.  With
``queue_dir`` set, every acknowledged delta is durably appended to a
per-session redo log (:class:`~repro.serve.queue.DeltaQueue`) *before* the
acknowledgement, so acks survive a ``kill -9``: recovery
(``load_graph(recover=True)``) replays the log and lands back on the exact
version the last token named.
"""

from __future__ import annotations

import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

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

# Longest a version-fenced query waits for the publish covering its token
# before it fails with 503: far past any solve, short of a client timeout.
FENCE_WAIT_SECONDS = 30.0

__all__ = [
    "BeliefSnapshot",
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
    one (zero for the first query after every publish — the counter the
    benchmark watches), ``snapshot_age_seconds`` its wall-clock age, and
    ``pending_deltas`` deltas applied to the graph but not yet covered by
    a publish (non-zero only while the propagation that follows them
    runs).  ``graph_version`` is the version the snapshot covers.
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
    mode: str | None  # solve mode; None until propagated, or nothing applied
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
    # (ack="applied"); the propagation that follows publishes it.
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
        return replace(
            self, n_deltas=1, n_applied=1, errors=[None], tokens=[token]
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
@dataclass
class BeliefSnapshot:
    """One propagation's published beliefs: what every query reads.

    ``beliefs`` and ``labels`` are the solve's own arrays, marked read-only
    when published: later solves copy their warm start, never write into
    it, and any write through a snapshot raises instead of corrupting a
    concurrent read.  ``graph_version`` is the version the beliefs cover.
    ``queries`` is the one mutable field: the queries answered from this
    snapshot, counted under the served graph's tally lock.
    """

    beliefs: np.ndarray
    labels: np.ndarray
    graph_version: int
    belief_version: int
    solved_at: float  # time.monotonic() of the publish
    queries: int = 0


class _ServedGraph:
    """One named session, its published snapshot, and its tallies.

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
        self.graph_version = 0  # deltas applied since load (session lock)
        # Replaced, never mutated, by publish(); notifies fenced queries.
        self.snapshot: BeliefSnapshot | None = None
        self.published = threading.Condition()
        self._tally = threading.Lock()  # query counts, off the session lock
        self.unloaded = False  # flipped under the session lock by unload
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
    def belief_version(self) -> int:
        """Completed propagations, the anchoring solve included."""
        return 0 if self.snapshot is None else self.snapshot.belief_version

    def solve_counts(self) -> dict:
        counts = self.session.mode_counts
        return {
            "n_solves": sum(counts.values()),
            "n_incremental": counts["incremental"],
            "n_localized": counts["localized"],
            "n_full": counts["full"],
        }

    def publish(self) -> BeliefSnapshot:
        """Publish the session's latest solve; caller holds the session lock."""
        result = self.session.last_result
        result.beliefs.flags.writeable = False
        result.labels.flags.writeable = False
        snapshot = BeliefSnapshot(
            beliefs=result.beliefs,
            labels=result.labels,
            graph_version=self.graph_version,
            belief_version=self.belief_version + 1,
            solved_at=time.monotonic(),
        )
        with self.published:
            self.snapshot = snapshot
            self.published.notify_all()
        return snapshot

    def snapshot_covering(self, version: int | None) -> BeliefSnapshot:
        """The current snapshot, first waiting for one covering ``version``.

        Returns the newest snapshot after at most ``FENCE_WAIT_SECONDS``;
        the caller checks whether it covers ``version``.
        """
        snapshot = self.snapshot
        if version is None or snapshot.graph_version >= version:
            return snapshot
        with obs.span("serve.fence_wait", graph=self.name, min_version=version):
            with self.published:
                self.published.wait_for(
                    lambda: self.snapshot.graph_version >= version,
                    timeout=FENCE_WAIT_SECONDS,
                )
                return self.snapshot

    def record_queries(self, snapshot: BeliefSnapshot, n_answered: int) -> int:
        """Count answered queries; returns how many ``snapshot`` answered before."""
        with self._tally:
            before = snapshot.queries
            snapshot.queries += n_answered
            self.n_queries += n_answered
        self._c_queries.inc(n_answered)
        return before

    def record_deltas(self, n_applied: int) -> None:
        self.n_deltas += n_applied
        self._c_deltas.inc(n_applied)

    def staleness(self, snapshot: BeliefSnapshot | None = None,
                  queries_before: int | None = None) -> dict:
        snapshot = self.snapshot if snapshot is None else snapshot
        return {
            "queries_since_refresh": (
                snapshot.queries if queries_before is None else queries_before
            ),
            "snapshot_age_seconds": time.monotonic() - snapshot.solved_at,
            "pending_deltas": self.graph_version - snapshot.graph_version,
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
            "n_queries": self.n_queries,
            "n_deltas": self.n_deltas,
            **self.solve_counts(),
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
    queue_dir:
        Directory for the per-session durable delta queues
        (:class:`~repro.serve.queue.DeltaQueue`).  Every acknowledged
        delta hits disk before its ack, so ``load_graph(recover=True)``
        after a worker kill replays the log and loses nothing.  ``None``
        disables durability.
    """

    def __init__(
        self,
        strict_deltas: bool = True,
        registry=None,
        queue_dir=None,
    ) -> None:
        self.strict_deltas = bool(strict_deltas)
        self.registry = registry if registry is not None else obs.metrics()
        self.started_at = time.time()
        self.queue = DeltaQueue(queue_dir) if queue_dir is not None else None
        self._graphs: dict[str, _ServedGraph] = {}
        self._registry_lock = threading.RLock()

    # ------------------------------------------------------------- registry
    def graph_names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._graphs)

    def _served(self, name: str) -> _ServedGraph:
        with self._registry_lock:
            served = self._graphs.get(name)
        if served is None:
            raise UnknownGraphError(name, self.graph_names())
        return served

    @contextmanager
    def _locked(self, name: str):
        """A served graph with its session lock held.

        The gap between :meth:`_served` returning and the session lock
        being acquired can race an unload: the object is then no longer in
        the registry, and a delta written into it would be silently lost.
        The ``unloaded`` flag — flipped under the session lock — turns
        that race into a 404.
        """
        served = self._served(name)
        with served.session.lock:
            if not served.unloaded:
                yield served
                return
        raise UnknownGraphError(name, self.graph_names())

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
        with session.lock, obs.span("serve.load", graph=name, recover=recover):
            session.propagate()
            served.publish()
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
            self._graphs[name] = served
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
        applied, errors, _ = served.session.rehydrate(
            [delta for _, delta in entries]
        )
        served.graph_version = entries[-1][0]
        served.record_deltas(applied)
        # rehydrate() already propagated (unless nothing re-applied, when
        # the anchor's beliefs are the answer); publish what covers the log.
        served.publish()
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

    def unload(self, name: str) -> dict:
        """Drop a served graph; returns its final info dict."""
        with self._registry_lock:
            served = self._served(name)
            with served.session.lock:  # a consistent final snapshot
                info = served.info()
                served.unloaded = True  # in-flight deltas -> 404
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
                **served.solve_counts(),
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
        """Answer many queries from one snapshot with one vectorized lookup.

        ``requests`` is a list of ``(nodes, top_k)`` pairs or
        ``(nodes, top_k, min_version)`` triples.  All valid requests are
        gathered from the published belief matrix in a single fancy-index
        and (when any request wants a ranking) a single arg-sort.  Returns
        one :class:`QueryResult` **or** :class:`ServeError` per request, in
        order; per-request failures never poison their batch siblings.

        No session lock is taken: the answer comes off the current
        :class:`BeliefSnapshot`, whatever propagation is running.  A
        ``min_version`` the snapshot does not cover yet waits for the
        publish that does (a ``serve.fence_wait`` span), and fails with
        status 503 if none comes within ``FENCE_WAIT_SECONDS``.  A
        ``min_version`` *ahead* of the graph's ``graph_version`` fails that
        request with status 412: the fence that turns a lost acknowledged
        write (impossible while the durable queue is intact) into a loud
        error instead of a silently stale read.
        """
        served = self._served(name)
        with obs.span("serve.query", graph=name, n_requests=len(requests)):
            outputs: list[QueryResult | Exception | None] = [None] * len(requests)
            admitted: list[tuple[int, object, object, int | None]] = []
            for position, request in enumerate(requests):
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
                except ServeError as exc:
                    outputs[position] = exc
                    continue
                admitted.append((position, request[0], request[1], min_version))

            snapshot = served.snapshot_covering(max(
                (version for *_, version in admitted if version is not None),
                default=None,
            ))
            beliefs, labels = snapshot.beliefs, snapshot.labels
            n_classes = beliefs.shape[1]
            valid: list[tuple[int, np.ndarray, int | None]] = []
            for position, nodes, top_k, min_version in admitted:
                try:
                    if min_version is not None and min_version > snapshot.graph_version:
                        raise ServeError(
                            f"no propagation of graph {name!r} covered "
                            f"min_version {min_version} within "
                            f"{FENCE_WAIT_SECONDS:g}s (published: "
                            f"{snapshot.graph_version})",
                            status=503,
                        )
                    node_array = self._check_nodes(nodes, beliefs.shape[0])
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

            if not valid:
                return outputs
            queries_before = served.record_queries(snapshot, len(valid))
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
                    graph_version=snapshot.graph_version,
                    belief_version=snapshot.belief_version,
                    staleness=served.staleness(snapshot, queries_before),
                )
            return outputs

    # --------------------------------------------------------------- deltas
    def apply_delta(
        self, name: str, delta: GraphDelta, delta_id: str | None = None,
    ) -> DeltaBatchResult:
        """Apply one delta (raising on rejection); one propagation follows."""
        outcome = self.apply_deltas(name, [delta], delta_ids=[delta_id])
        if outcome.errors[0] is not None:
            raise ServeError(f"delta rejected: {outcome.errors[0]}")
        return outcome

    def apply_deltas(
        self, name: str, deltas: list, delta_ids: list | None = None,
    ) -> DeltaBatchResult:
        """Apply a batch of deltas with a *single* propagation, then publish.

        Both halves in one call: :meth:`apply_and_log` then
        :meth:`propagate_and_publish`.  The belief refresh happens once at
        the end, which is exactly the coalescing win: N concurrent deltas
        cost one propagation instead of N.
        """
        return self.propagate_and_publish(
            self.apply_and_log(name, deltas, delta_ids)
        )

    def apply_and_log(
        self, name: str, deltas: list, delta_ids: list | None = None,
    ) -> DeltaBatchResult:
        """The first half of a delta batch: apply every delta and log it.

        Each delta is validated and applied individually — a rejected one
        (strict-mode duplicate edge, out-of-range node ...) is reported in
        ``errors`` without blocking the rest.  Each accepted delta's apply
        order becomes its read-your-writes token in ``tokens``; with a
        durable queue attached, the delta is on disk *before* this method
        returns (the token is a durability receipt, not just an ordering
        one).  ``delta_ids`` makes retries idempotent: an id the durable
        queue has already logged is acknowledged with its original token
        instead of being applied twice (a router re-sending after a worker
        death cannot double-apply).  The result is not propagated yet:
        pass it to :meth:`propagate_and_publish`.
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
                mode=None,
                reason=None,
                propagate_seconds=0.0,
                graph_version=served.graph_version,
                belief_version=served.belief_version,
                n_coalesced=len(deltas),
                tokens=tokens,
                propagated=False,
            )

    def propagate_and_publish(self, applied: DeltaBatchResult) -> DeltaBatchResult:
        """The second half: one propagation over everything applied, published.

        Returns ``applied`` marked propagated, with the solve's mode and
        timing and the published belief version.  A batch that applied
        nothing is returned as is.
        """
        if not applied.n_applied:
            return applied
        with self._locked(applied.name) as served, obs.span(
            "serve.propagate", graph=applied.name, n_deltas=applied.n_applied
        ):
            step = served.session.propagate()
            snapshot = served.publish()
        return replace(
            applied,
            mode=step.mode,
            reason=step.decision.reason,
            propagate_seconds=step.propagate_seconds,
            belief_version=snapshot.belief_version,
            propagated=True,
        )

    # --------------------------------------------------------------- health
    def health(self) -> dict:
        """Per-graph liveness for ``GET /healthz``.

        A graph is *live* once it has published a belief snapshot (the
        anchoring solve completed and queries can be answered).  The
        session lock is probed, never waited on: a session mid-propagation
        is busy, not dead, and the health probe must answer immediately
        either way.
        """
        with self._registry_lock:
            served_list = list(self._graphs.values())
        graphs = {}
        for served in served_list:
            locked = served.session.lock.acquire(blocking=False)
            try:
                graphs[served.name] = {
                    "live": served.snapshot is not None,
                    "busy": not locked,
                    "graph_version": served.graph_version,
                    "belief_version": served.belief_version,
                    "staleness": served.staleness(),
                }
            finally:
                if locked:
                    served.session.lock.release()
        return graphs

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Service-wide stats: per-graph info plus global tallies."""
        with self._registry_lock:
            served_list = list(self._graphs.values())
        graphs = {}
        for served in served_list:
            with served.session.lock:
                graphs[served.name] = served.info()
        return {
            "uptime_seconds": time.time() - self.started_at,
            "n_graphs": len(graphs),
            "durable_queue": (
                None if self.queue is None else str(self.queue.directory)
            ),
            "n_queries": sum(info["n_queries"] for info in graphs.values()),
            "n_deltas": sum(info["n_deltas"] for info in graphs.values()),
            "n_solves": sum(info["n_solves"] for info in graphs.values()),
            "graphs": graphs,
        }

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

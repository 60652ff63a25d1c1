"""Online model-quality telemetry: prequential accuracy, churn, drift.

The speed side of the stack (PR 7 metrics, PR 8 SLOs) says nothing about
whether a long-lived session's *answers* are still good.  This module
adds the three quality signals the paper's evaluation revolves around,
computed online and strictly as observation — nothing here ever feeds
back into propagation numerics:

* **Prequential accuracy** (test-then-train): when a reveal delta
  arrives, the session's *current* beliefs are scored against the
  incoming labels before they are absorbed as seeds.  Every revealed,
  previously-unlabeled node inside the belief matrix is one test
  example; rolling totals, top-k hits, a per-class confusion table, and
  a calibration table (max-belief confidence buckets vs empirical
  correctness) accumulate over the session's lifetime.
* **Belief churn**: per-propagation L1 / L-infinity belief movement and
  argmax-flip counts.  Localized solves report churn over the trusted
  frontier (off-frontier rows are provably unchanged), dense solves
  over all nodes, so the two agree on the touched set.
* **Compatibility drift**: the session's neighbor label counts
  ``M = X^T W X`` over the *observed* (seed-labeled) subgraph (weighted,
  kept exact by the session under every delta, obs on or off), read
  here, row-normalized (Eq. 9) into an empirical compatibility estimate
  and compared to the session's frozen H as a normalized Frobenius
  distance.  This gauge is the input a future incremental-DCEr policy
  thresholds on.

Everything records through the shared :class:`MetricsRegistry`, so it
inherits the ``REPRO_OBS=off`` no-op switch, snapshot shipping, and the
Prometheus exposition for free.  The :class:`QualityMonitor` also keeps
plain-Python running state so ``summary()`` can serve a JSON view
(``GET /graphs/<name>/quality``, ``repro stream --json``) without
scraping metrics back out of the registry.
"""

from __future__ import annotations

import numpy as np

from repro import obs

__all__ = [
    "ACCURACY_BUCKETS",
    "CHURN_FLIP_BUCKETS",
    "N_CALIBRATION_BUCKETS",
    "QualityMonitor",
    "normalized_drift",
]

# Accuracy-fraction ladder: per-delta prequential accuracy and churn
# magnitudes both live in [0, 1]; a tenth-step ladder gives the SLO
# quantile machinery enough resolution for floors like "p50 >= 0.6".
ACCURACY_BUCKETS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# Argmax flips per propagation: small-count ladder (most steps flip a
# handful of nodes; a full-graph relabel lands in the +Inf bucket).
CHURN_FLIP_BUCKETS = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
    4096.0, 16384.0, 65536.0,
)
# Calibration confidence bands: [0, 0.1), [0.1, 0.2) ... [0.9, 1.0].
N_CALIBRATION_BUCKETS = 10


def _argmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise argmax, specialized for the tall-and-narrow belief case.

    ``np.argmax(axis=1)`` pays per-row dispatch overhead that dominates
    when k is 2 or 3 (the common class counts here) — the specialized
    column comparisons below are ~5x faster at 100k rows and reproduce
    np.argmax's first-occurrence tie semantics exactly.
    """
    n, k = matrix.shape
    if k == 1:
        return np.zeros(n, dtype=np.int8)
    if k == 2:
        return (matrix[:, 1] > matrix[:, 0]).view(np.int8)
    if k == 3:
        c0, c1, c2 = matrix[:, 0], matrix[:, 1], matrix[:, 2]
        ge01 = c0 >= c1
        first = ge01 & (c0 >= c2)
        second = c1 >= c2
        second &= ~ge01
        # 2 - 2*first - second: first->0, second->1, else->2 (disjoint masks)
        indices = np.full(n, 2, dtype=np.int8)
        indices -= first.view(np.int8) << 1
        indices -= second.view(np.int8)
        return indices
    return np.argmax(matrix, axis=1)


def normalized_drift(counts: np.ndarray, compatibility: np.ndarray) -> float:
    """Normalized Frobenius distance between Ĥ(counts) and H.

    Ĥ is the paper's Eq. 9 row normalization of the neighbor label counts
    ``M``, with rows that hold no observations set to uniform so the
    distance stays defined for every class.  H is row-normalized over
    magnitudes first, so the gauge compares the *shapes* of the
    neighbor-label distributions and is insensitive to H's overall scale
    convention (LinBP's centered residual form, raw DCE estimates, and
    stochastic matrices all compare cleanly).
    """
    # Imported here: repro.core imports repro.obs for its spans.
    from repro.core.statistics import normalize_statistics

    reference = np.asarray(compatibility, dtype=np.float64)
    # Row-normalize over magnitudes so sign conventions (centered H)
    # survive; an all-zero row falls back to uniform like the estimate.
    scale = np.abs(reference).sum(axis=1)
    k = reference.shape[0]
    normalized = np.full((k, k), 1.0 / k)
    observed = scale > 0
    normalized[observed] = reference[observed] / scale[observed, None]
    estimate = normalize_statistics(counts, variant=1)
    estimate[estimate.sum(axis=1) == 0] = 1.0 / k
    denom = float(np.linalg.norm(normalized))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(estimate - normalized) / denom)


class QualityMonitor:
    """Accumulates the three quality signals for one streaming session.

    The owning session calls the ``observe_*`` hooks only while
    ``obs.enabled()`` — the monitor itself never consults the flag for
    its plain-Python state, which keeps the hooks' semantics explicit
    (registry instruments additionally no-op on their own when
    recording is off).
    """

    def __init__(
        self,
        n_classes: int,
        registry=None,
        labels: dict | None = None,
        top_k: int = 2,
    ) -> None:
        self.n_classes = int(n_classes)
        self.top_k = max(1, min(int(top_k), self.n_classes))
        self.registry = registry if registry is not None else obs.metrics()
        self._labels = dict(labels or {})
        # Prequential rolling state.
        self.scored = 0
        self.correct = 0
        self.topk_hits = 0
        self.reveal_deltas = 0
        self.last_accuracy: float | None = None
        self.confusion = np.zeros((self.n_classes, self.n_classes), dtype=np.int64)
        self.calibration_total = np.zeros(N_CALIBRATION_BUCKETS, dtype=np.int64)
        self.calibration_correct = np.zeros(N_CALIBRATION_BUCKETS, dtype=np.int64)
        # Churn rolling state.
        self.churn_steps = 0
        self.flips_total = 0
        self.last_churn: dict | None = None
        # Drift state: the labeled-labeled edge weight behind the latest
        # gauge value (the counts themselves belong to the session).
        self.pairs_observed = 0.0
        self.last_drift: float | None = None

        labels = self._labels
        self._correct_counter = self.registry.counter(
            "repro_quality_prequential_total",
            "Prequentially scored reveals by outcome (test-then-train).",
            outcome="correct", **labels,
        )
        self._wrong_counter = self.registry.counter(
            "repro_quality_prequential_total",
            "Prequentially scored reveals by outcome (test-then-train).",
            outcome="wrong", **labels,
        )
        self._topk_counter = self.registry.counter(
            "repro_quality_topk_hits_total",
            "Prequential reveals whose true class was in the top-k beliefs.",
            **labels,
        )
        self._flip_counter = self.registry.counter(
            "repro_quality_flips_total",
            "Argmax label flips across streaming propagations.",
            **labels,
        )
        self._drift_gauge = self.registry.gauge(
            "repro_quality_drift",
            "Normalized distance between the empirical compatibility "
            "estimate and the session's frozen H.",
            **labels,
        )
        self._accuracy_histogram = self.registry.histogram(
            "repro_quality_prequential_accuracy",
            "Per-reveal-delta prequential accuracy (test-then-train).",
            buckets=ACCURACY_BUCKETS, **labels,
        )
        self._confidence_histogram = self.registry.histogram(
            "repro_quality_confidence",
            "Normalized max-belief confidence of prequentially scored nodes.",
            buckets=ACCURACY_BUCKETS, **labels,
        )
        self._confidence_correct_histogram = self.registry.histogram(
            "repro_quality_confidence_correct",
            "Confidence of prequentially scored nodes that were correct.",
            buckets=ACCURACY_BUCKETS, **labels,
        )
        # Lazily-populated instrument caches: registry lookups hash the
        # label set on every call, which is real money on the per-step
        # hot path (these hooks run inside every streaming step).
        self._confusion_counters: dict[tuple[int, int], object] = {}
        self._churn_histograms: dict[str, tuple] = {}
        # Argmax of the last belief matrix this monitor observed, keyed by
        # array identity.  Streaming sessions hand the prior step's result
        # back as ``previous`` (same object), so the cache saves one full
        # argmax pass per step; any other caller misses it and pays for
        # the honest recompute.
        self._argmax_cache: tuple | None = None

    # ---------------------------------------------------------- prequential
    def observe_reveal(
        self,
        beliefs: np.ndarray | None,
        reveal_nodes: np.ndarray,
        reveal_labels: np.ndarray,
        seed_labels: np.ndarray,
    ) -> float | None:
        """Score current beliefs against an incoming reveal (pre-absorb).

        Only nodes that (a) exist in the belief matrix and (b) are not
        already seeds count as test examples: a re-reveal of a known
        seed is a label *update*, not a prediction the model was asked
        to make, and a node revealed in the same delta that created it
        was never predicted at all.  Returns this delta's accuracy, or
        None when nothing was scorable.
        """
        if beliefs is None or reveal_nodes.shape[0] == 0:
            return None
        nodes = np.asarray(reveal_nodes, dtype=np.int64)
        truth = np.asarray(reveal_labels, dtype=np.int64)
        known = seed_labels[nodes] if nodes.shape[0] else nodes
        mask = (nodes < beliefs.shape[0]) & (known < 0)
        if not mask.any():
            return None
        nodes = nodes[mask]
        truth = truth[mask]
        rows = beliefs[nodes]
        predicted = np.argmax(rows, axis=1)
        correct_mask = predicted == truth
        n_scored = int(nodes.shape[0])
        n_correct = int(correct_mask.sum())
        accuracy = n_correct / n_scored

        if self.top_k >= self.n_classes:
            n_topk = n_scored
        else:
            top = np.argpartition(rows, -self.top_k, axis=1)[:, -self.top_k:]
            n_topk = int((top == truth[:, None]).any(axis=1).sum())

        # Calibration: normalized max-belief confidence in [1/k, 1].
        # Rows are only shifted when they contain negative entries
        # (centered-residual propagators); shifting a non-negative row
        # would zero its smallest entry and inflate the confidence.
        shifted = rows - np.minimum(rows.min(axis=1, keepdims=True), 0.0)
        mass = shifted.sum(axis=1)
        confidence = np.full(n_scored, 1.0 / self.n_classes)
        positive = mass > 0
        confidence[positive] = shifted[positive].max(axis=1) / mass[positive]
        buckets = np.clip(
            (confidence * N_CALIBRATION_BUCKETS).astype(np.int64),
            0, N_CALIBRATION_BUCKETS - 1,
        )

        self.scored += n_scored
        self.correct += n_correct
        self.topk_hits += n_topk
        self.reveal_deltas += 1
        self.last_accuracy = accuracy
        np.add.at(self.confusion, (truth, predicted), 1)
        np.add.at(self.calibration_total, buckets, 1)
        np.add.at(self.calibration_correct, buckets[correct_mask], 1)

        self._correct_counter.inc(n_correct)
        self._wrong_counter.inc(n_scored - n_correct)
        self._topk_counter.inc(n_topk)
        self._accuracy_histogram.observe(accuracy)
        cells, cell_counts = np.unique(
            truth * self.n_classes + predicted, return_counts=True
        )
        for cell, count in zip(cells, cell_counts):
            self._confusion_counter(
                int(cell) // self.n_classes, int(cell) % self.n_classes
            ).inc(int(count))
        for value, was_correct in zip(confidence, correct_mask):
            self._confidence_histogram.observe(float(value))
            if was_correct:
                self._confidence_correct_histogram.observe(float(value))
        return accuracy

    def _confusion_counter(self, true_label: int, predicted_label: int):
        counter = self._confusion_counters.get((true_label, predicted_label))
        if counter is None:
            counter = self.registry.counter(
                "repro_quality_confusion_total",
                "Prequential confusion counts (true vs predicted class).",
                true=true_label, predicted=predicted_label, **self._labels,
            )
            self._confusion_counters[(true_label, predicted_label)] = counter
        return counter

    # ---------------------------------------------------------------- churn
    def observe_churn(
        self,
        previous: np.ndarray,
        current: np.ndarray,
        rows: np.ndarray | None = None,
        mode: str = "full",
    ) -> dict | None:
        """Record belief movement between two propagations.

        ``rows`` restricts the comparison to the localized solver's
        trusted frontier (every off-frontier row is provably unchanged,
        so the restriction is exact, not an approximation); dense modes
        pass None and compare all shared rows.
        """
        n_shared = min(previous.shape[0], current.shape[0])
        if n_shared == 0 or previous.shape[1] != current.shape[1]:
            return None
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            rows = rows[(rows >= 0) & (rows < n_shared)]
            if rows.shape[0] == 0:
                before, after = previous[:0], current[:0]
            else:
                before, after = previous[rows], current[rows]
        else:
            before, after = previous[:n_shared], current[:n_shared]
        n_compared = int(before.shape[0])
        if n_compared == 0:
            movement_l1 = 0.0
            movement_linf = 0.0
            flips = 0
        else:
            diff = after - before
            np.abs(diff, out=diff)
            movement_l1 = float(diff.sum()) / n_compared
            movement_linf = float(diff.max())
            before_argmax = None
            cached = self._argmax_cache
            if cached is not None and cached[0] is previous:
                full_argmax = cached[1]
                if rows is not None:
                    before_argmax = full_argmax[rows]
                elif full_argmax.shape[0] >= n_shared:
                    before_argmax = full_argmax[:n_shared]
            if before_argmax is None:
                before_argmax = _argmax_rows(before)
            if rows is None:
                # Cache over ALL of current (not just the shared prefix):
                # next step's previous is this matrix, possibly grown.
                current_argmax = _argmax_rows(current)
                after_argmax = current_argmax[:n_shared]
                self._argmax_cache = (current, current_argmax)
            else:
                after_argmax = _argmax_rows(after)
            flips = int((after_argmax != before_argmax).sum())

        self.churn_steps += 1
        self.flips_total += flips
        self.last_churn = {
            "mode": mode,
            "n_compared": n_compared,
            "l1_per_node": movement_l1,
            "linf": movement_linf,
            "flips": flips,
        }

        self._flip_counter.inc(flips)
        h_l1, h_linf, h_flips = self._churn_instruments(mode)
        h_l1.observe(movement_l1)
        h_linf.observe(movement_linf)
        h_flips.observe(float(flips))
        return self.last_churn

    def _churn_instruments(self, mode: str) -> tuple:
        instruments = self._churn_histograms.get(mode)
        if instruments is None:
            labels = self._labels
            instruments = (
                self.registry.histogram(
                    "repro_quality_churn_l1",
                    "Mean per-node L1 belief movement per propagation.",
                    buckets=obs.RESIDUAL_BUCKETS, mode=mode, **labels,
                ),
                self.registry.histogram(
                    "repro_quality_churn_linf",
                    "Max absolute belief movement per propagation.",
                    buckets=obs.RESIDUAL_BUCKETS, mode=mode, **labels,
                ),
                self.registry.histogram(
                    "repro_quality_churn_flips",
                    "Argmax label flips per propagation.",
                    buckets=CHURN_FLIP_BUCKETS, mode=mode, **labels,
                ),
            )
            self._churn_histograms[mode] = instruments
        return instruments

    # ---------------------------------------------------------------- drift
    def refresh_drift(
        self, counts: np.ndarray, compatibility: np.ndarray | None
    ) -> float | None:
        """Read the session's ``M = X^T W X`` into the drift gauge.

        ``counts`` is owned and kept exact by the session; this only
        reads it.  Returns the gauge value, or None without an H.
        """
        # M holds both orientations of every labeled-labeled edge.
        self.pairs_observed = float(counts.sum()) / 2.0
        if compatibility is None:
            return None
        value = normalized_drift(counts, compatibility)
        self.last_drift = value
        self._drift_gauge.set(value)
        return value

    # -------------------------------------------------------------- summary
    @property
    def accuracy(self) -> float | None:
        """Lifetime prequential accuracy, or None before any scoring."""
        if self.scored == 0:
            return None
        return self.correct / self.scored

    def summary(self) -> dict:
        """JSON-safe view for /quality endpoints and replay reports."""
        calibration = []
        for index in range(N_CALIBRATION_BUCKETS):
            total = int(self.calibration_total[index])
            correct = int(self.calibration_correct[index])
            calibration.append({
                "confidence_low": index / N_CALIBRATION_BUCKETS,
                "confidence_high": (index + 1) / N_CALIBRATION_BUCKETS,
                "total": total,
                "correct": correct,
                "empirical_accuracy": (correct / total) if total else None,
            })
        return {
            "prequential": {
                "scored": int(self.scored),
                "correct": int(self.correct),
                "accuracy": self.accuracy,
                "topk_hits": int(self.topk_hits),
                "top_k": int(self.top_k),
                "reveal_deltas": int(self.reveal_deltas),
                "last_accuracy": self.last_accuracy,
            },
            "confusion": self.confusion.tolist(),
            "calibration": calibration,
            "churn": {
                "steps": int(self.churn_steps),
                "flips_total": int(self.flips_total),
                "last": self.last_churn,
            },
            "drift": {
                "value": self.last_drift,
                "pairs_observed": float(self.pairs_observed),
            },
        }

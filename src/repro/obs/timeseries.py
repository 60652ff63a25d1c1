"""Fixed-memory time-series recording over metric snapshots.

:class:`TimeSeriesRecorder` turns the point-in-time world of
:class:`~repro.obs.registry.MetricsRegistry` into *history*: a background
thread samples a snapshot source into a ring buffer (``capacity`` samples,
oldest evicted — memory is fixed no matter how long the process lives) and
windowed queries derive the operational numbers the raw registry cannot
answer:

* **rates** — queries/sec, errors/sec from counter deltas between the
  window's edge samples (:meth:`~TimeSeriesRecorder.counter_rate`);
* **sliding-window quantiles** — p50/p95/p99 over *just* the window, by
  diffing cumulative histogram bucket counts between the edge samples and
  interpolating inside the resulting per-window distribution
  (:meth:`~TimeSeriesRecorder.quantile`);
* **sparkline series** — per-interval values for dashboards
  (:meth:`~TimeSeriesRecorder.series`).

The snapshot *source* is any zero-argument callable returning the
``registry.snapshot()`` dict shape; :func:`registry_source` adapts one or
more local registries (a worker's SLO recorder), and ``repro top`` samples
the federated snapshot of remote ``/metrics`` endpoints
(:class:`repro.obs.scrape.MetricsScraper`) — the recorder itself does not
care whether history is single-process or federated.

An :class:`~repro.obs.slo.SloSpec` attached via :meth:`attach_slo` is
re-evaluated after every sample; rule transitions invoke ``on_alert`` (the
serve layer uses this for ``--log-json`` alert lines) and the latest
statuses back ``GET /healthz`` / ``GET /alerts``.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from typing import Callable, Iterable, Mapping

__all__ = [
    "TimeSeriesRecorder",
    "registry_source",
    "merge_family_maps",
    "iter_children",
    "counter_total",
    "gauge_value",
    "histogram_state",
    "quantile_from_counts",
]


# ----------------------------------------------------------- snapshot helpers
def merge_family_maps(snapshots: Iterable[dict]) -> dict:
    """Union several snapshots into one; first snapshot wins on family name.

    Mirrors the first-wins convention of
    :func:`repro.obs.registry.render_prometheus` for the service-registry +
    process-global pair (family names are disjoint by convention).
    """
    families: dict = {}
    for snapshot in snapshots:
        for name, payload in snapshot.get("families", {}).items():
            families.setdefault(name, payload)
    return {"families": families}


def registry_source(registries) -> Callable[[], dict]:
    """A recorder source sampling one or more local registries."""
    registries = list(registries)
    return lambda: merge_family_maps(r.snapshot() for r in registries)


def _matches(labels: dict, selector: Mapping[str, str]) -> bool:
    """True when every selector pair matches (values are regex-fullmatched).

    Plain strings match themselves, so ``status="500"`` selects exactly
    that series while ``status="5.."`` selects the whole class.
    """
    for key, pattern in selector.items():
        value = labels.get(key)
        if value is None or re.fullmatch(str(pattern), value) is None:
            return False
    return True


def iter_children(snapshot: dict, name: str, selector: Mapping[str, str] | None = None):
    """Yield ``(labels_dict, payload)`` for every matching child of a family."""
    family = snapshot.get("families", {}).get(name)
    if family is None:
        return
    selector = selector or {}
    for raw_key, payload in family.get("children", []):
        labels = {k: v for k, v in raw_key}
        if _matches(labels, selector):
            yield labels, payload


def counter_total(snapshot: dict, name: str, selector=None) -> float | None:
    """Sum of matching counter (or gauge) children; None when absent."""
    total, found = 0.0, False
    for _, payload in iter_children(snapshot, name, selector):
        total += float(payload.get("value", 0.0))
        found = True
    return total if found else None


def gauge_value(snapshot: dict, name: str, selector=None) -> float | None:
    """Sum of matching gauge children (fleet gauges add; None when absent)."""
    return counter_total(snapshot, name, selector)


def histogram_state(snapshot: dict, name: str, selector=None):
    """Summed ``(buckets, counts, count, sum)`` over matching children.

    Returns ``None`` when the family is absent or no child matches; raises
    on mismatched bucket layouts (summing those would be meaningless).
    """
    family = snapshot.get("families", {}).get(name)
    if family is None:
        return None
    buckets = family.get("buckets")
    counts = None
    total_count, total_sum = 0, 0.0
    for _, payload in iter_children(snapshot, name, selector):
        child_counts = payload.get("counts")
        if child_counts is None:
            return None  # not a histogram family
        if counts is None:
            counts = [0] * len(child_counts)
        elif len(counts) != len(child_counts):
            raise ValueError(f"histogram {name!r} bucket layout mismatch")
        for index, value in enumerate(child_counts):
            counts[index] += value
        total_count += payload.get("count", 0)
        total_sum += payload.get("sum", 0.0)
    if counts is None:
        return None
    return tuple(buckets or []), counts, total_count, total_sum


def quantile_from_counts(buckets, counts, q: float) -> float:
    """Interpolated q-quantile from per-bucket counts (same math as
    :meth:`repro.obs.registry.Histogram.quantile`, reusable on diffs)."""
    total = sum(counts)
    if total <= 0:
        return float("nan")
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank and bucket_count > 0:
            if index >= len(buckets):
                return buckets[-1] if buckets else float("nan")
            lower = 0.0 if index == 0 else buckets[index - 1]
            upper = buckets[index]
            fraction = (rank - previous) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return buckets[-1] if buckets else float("nan")


# ----------------------------------------------------------------- recorder
class TimeSeriesRecorder:
    """Ring-buffer recorder answering windowed queries over snapshots.

    Parameters
    ----------
    source:
        Zero-argument callable returning a snapshot dict (see
        :func:`registry_source`).
    interval_seconds:
        Background sampling period (and the resolution of
        :meth:`series`).
    capacity:
        Ring size in samples — the *only* memory bound needed; a 600 x 1s
        ring holds ten minutes of history forever.
    clock:
        Injectable monotonic clock (tests drive synthetic time).
    """

    def __init__(
        self,
        source: Callable[[], dict],
        interval_seconds: float = 1.0,
        capacity: int = 600,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (windows need two edges)")
        self._source = source
        self.interval_seconds = float(interval_seconds)
        self.capacity = int(capacity)
        self._clock = clock
        self._samples: deque[tuple[float, dict]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._slo = None
        self._statuses: list = []
        self._firing: dict[str, bool] = {}
        self.on_alert: Callable[[object, bool], None] | None = None
        self.n_sample_errors = 0

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "TimeSeriesRecorder":
        """Start the sampling thread (idempotent) after a baseline sample,
        so windows see what is observed before the first interval ends."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-recorder", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.sample()

    # ------------------------------------------------------------ sampling
    def sample(self) -> None:
        """Take one sample now (the thread's body; tests call it directly).

        A failing source (an endpoint mid-restart) is counted, not raised —
        the recorder must survive exactly the degraded conditions it
        exists to report.
        """
        try:
            snapshot = self._source()
        except Exception:
            self.n_sample_errors += 1
            return
        with self._lock:
            self._samples.append((self._clock(), snapshot))
        if self._slo is not None:
            self._evaluate_slo()

    def attach_slo(self, spec) -> None:
        """Evaluate ``spec`` after every sample (see :mod:`repro.obs.slo`)."""
        self._slo = spec

    def _evaluate_slo(self) -> None:
        statuses = self._slo.evaluate(self)
        with self._lock:
            self._statuses = statuses
        for status in statuses:
            was = self._firing.get(status.name, False)
            if status.firing != was:
                self._firing[status.name] = status.firing
                callback = self.on_alert
                if callback is not None:
                    try:
                        callback(status, status.firing)
                    except Exception:  # pragma: no cover - callbacks must not kill sampling
                        pass

    def statuses(self) -> list:
        """The most recent SLO evaluation (empty before the first sample)."""
        with self._lock:
            return list(self._statuses)

    def firing(self) -> list:
        return [status for status in self.statuses() if status.firing]

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def latest(self) -> tuple[float, dict] | None:
        with self._lock:
            return self._samples[-1] if self._samples else None

    def window(self, window_seconds: float) -> list[tuple[float, dict]]:
        """Samples no older than ``window_seconds`` before the newest one."""
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return []
        horizon = samples[-1][0] - float(window_seconds)
        return [sample for sample in samples if sample[0] >= horizon]

    def _edges(self, window_seconds: float):
        """The (earliest, latest) samples of a window, or None.

        When the window reaches past recorded history the earliest stored
        sample is used — a young recorder reports over the history it has
        rather than nothing.
        """
        samples = self.window(window_seconds)
        if len(samples) < 2:
            return None
        return samples[0], samples[-1]

    def counter_delta(self, name: str, window_seconds: float = 60.0,
                      **selector) -> float | None:
        """Increase of a counter total across the window; None without data.

        A negative delta (an instance restarted and its counter reset) is
        clamped to the late total — the best monotone estimate available.
        """
        edges = self._edges(window_seconds)
        if edges is None:
            return None
        (_, early), (_, late) = edges
        late_total = counter_total(late, name, selector)
        if late_total is None:
            return None
        early_total = counter_total(early, name, selector) or 0.0
        delta = late_total - early_total
        return late_total if delta < 0 else delta

    def counter_rate(self, name: str, window_seconds: float = 60.0,
                     **selector) -> float | None:
        """Per-second rate of a counter over the window (qps and friends)."""
        edges = self._edges(window_seconds)
        if edges is None:
            return None
        (early_ts, _), (late_ts, _) = edges
        elapsed = late_ts - early_ts
        if elapsed <= 0:
            return None
        delta = self.counter_delta(name, window_seconds, **selector)
        return None if delta is None else delta / elapsed

    def gauge(self, name: str, **selector) -> float | None:
        """Latest value of a gauge total (summed over matching children)."""
        latest = self.latest()
        if latest is None:
            return None
        return gauge_value(latest[1], name, selector)

    def quantile(self, name: str, q: float, window_seconds: float = 60.0,
                 **selector) -> float | None:
        """Sliding-window quantile from histogram bucket-count diffs.

        Subtracting the window's early cumulative bucket counts from the
        late ones leaves exactly the observations made *inside* the
        window; the quantile interpolates in that distribution, so a
        latency spike ages out of the p99 once the window slides past it
        (the all-time histogram would remember it forever).
        """
        edges = self._edges(window_seconds)
        if edges is None:
            return None
        (_, early), (_, late) = edges
        late_state = histogram_state(late, name, selector)
        if late_state is None:
            return None
        buckets, late_counts, late_count, _ = late_state
        early_state = histogram_state(early, name, selector)
        if early_state is None:
            counts = late_counts
        else:
            _, early_counts, early_count, _ = early_state
            if len(early_counts) != len(late_counts) or late_count < early_count:
                counts = late_counts  # restart or relabel: fall back to all-time
            else:
                counts = [a - b for a, b in zip(late_counts, early_counts)]
        if sum(counts) <= 0:
            return None
        return quantile_from_counts(buckets, counts, q)

    def series(self, name: str, window_seconds: float = 60.0, kind: str = "counter",
               **selector) -> list[tuple[float, float]]:
        """Per-sample series for sparklines.

        ``kind="counter"`` yields per-interval *rates* (one point per
        consecutive sample pair); ``kind="gauge"`` yields raw values.
        """
        samples = self.window(window_seconds)
        points: list[tuple[float, float]] = []
        if kind == "gauge":
            for ts, snapshot in samples:
                value = gauge_value(snapshot, name, selector)
                if value is not None:
                    points.append((ts, value))
            return points
        previous: tuple[float, float] | None = None
        for ts, snapshot in samples:
            total = counter_total(snapshot, name, selector)
            if total is None:
                continue
            if previous is not None:
                prev_ts, prev_total = previous
                elapsed = ts - prev_ts
                if elapsed > 0:
                    delta = total - prev_total
                    points.append((ts, (total if delta < 0 else delta) / elapsed))
            previous = (ts, total)
        return points

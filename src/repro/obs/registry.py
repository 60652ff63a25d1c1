"""Thread-safe metrics: counters, gauges, and fixed-bucket histograms.

The registry is dependency-free and designed for the repo's three
execution shapes:

* **threads** — every instrument in a registry shares that registry's
  lock, so concurrent increments from the serve HTTP handler pool and
  the MicroBatcher worker are exact;
* **processes** — :meth:`MetricsRegistry.snapshot` produces a plain
  picklable dict and :func:`diff_snapshots` a before/after delta, which
  the runner's multiprocessing workers ship back through the existing
  result channel for :meth:`MetricsRegistry.merge_snapshot`;
* **scraping** — :meth:`MetricsRegistry.render_prometheus` emits the
  Prometheus text exposition format served by ``GET /metrics``.

Histograms use fixed upper-bound buckets (no sample storage), so p50/
p95/p99 come from bucket interpolation at read time and the write path
is a bisect plus two adds.  All recording methods no-op when
``REPRO_OBS=off`` (see :mod:`repro.obs._flags`).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

from repro.obs._flags import enabled

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "render_prometheus",
    "LATENCY_BUCKETS",
]

# Default bucket ladder: latencies span 100us..30s (the serve p99 at 60k
# nodes is ~3ms, a cold 1M-node solve tens of seconds).
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_lock", "_value")
    kind = "counter"

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not enabled():
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("_lock", "_value")
    kind = "gauge"

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        if not enabled():
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not enabled():
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches everything beyond the last bound.  Quantiles interpolate
    linearly inside the selected bucket, which is exact enough for the
    p50/p95/p99 dashboards this feeds (and costs no sample storage).
    """

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, lock: threading.RLock, buckets: Iterable[float]):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be sorted and unique")
        self._lock = lock
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not enabled():
            return
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (q in [0, 1]) from bucket counts."""
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return float("nan")
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if index >= len(self.buckets):
                    # +Inf bucket: the best point estimate is the last
                    # finite bound.
                    return self.buckets[-1]
                lower = 0.0 if index == 0 else self.buckets[index - 1]
                upper = self.buckets[index]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _Family:
    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str, buckets):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        # label-tuple -> instrument; the key is the sorted (name, value)
        # pairs so label order at the call site does not matter.
        self.children: dict[tuple, object] = {}


def _label_key(labels: Mapping[str, object]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A named collection of metric families sharing one lock."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        # (name, kind, label_key) -> instrument.  Lookups on the hot path
        # (every solve and request records a few instruments) hit this flat
        # dict without taking the lock or re-validating names — safe under
        # the GIL because entries are only ever added for instruments that
        # already passed the slow path, and cleared wholesale on reset.
        self._fast: dict[tuple, object] = {}

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        child = self._fast.get((name, "counter", _label_key(labels)))
        if child is not None:
            return child
        return self._child(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        child = self._fast.get((name, "gauge", _label_key(labels)))
        if child is not None:
            return child
        return self._child(name, "gauge", help, None, labels)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = LATENCY_BUCKETS, **labels
    ) -> Histogram:
        child = self._fast.get((name, "histogram", _label_key(labels)))
        if child is not None:
            return child
        return self._child(name, "histogram", help, tuple(float(b) for b in buckets), labels)

    def _child(self, name, kind, help_text, buckets, labels):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name: {label!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, not {kind}"
                )
            child = family.children.get(key)
            if child is None:
                if kind == "counter":
                    child = Counter(self._lock)
                elif kind == "gauge":
                    child = Gauge(self._lock)
                else:
                    child = Histogram(self._lock, buckets or family.buckets or LATENCY_BUCKETS)
                family.children[key] = child
            self._fast[(name, kind, key)] = child
            return child

    def get(self, name: str, **labels):
        """Existing instrument for (name, labels), or None."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def families(self) -> dict:
        """Point-in-time copy of {name: (kind, help, {label_key: instrument})}."""
        with self._lock:
            return {
                name: (family.kind, family.help, dict(family.children))
                for name, family in self._families.items()
            }

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._families.clear()
            self._fast.clear()

    def reset_children(self, **labels) -> int:
        """Drop every instrument whose labels contain all given pairs.

        Used when a served graph is (re)loaded so its lifetime counters
        restart from zero, matching the pre-registry per-graph fields.
        Returns the number of instruments removed.
        """
        wanted = set((k, str(v)) for k, v in labels.items())
        removed = 0
        with self._lock:
            for family in self._families.values():
                stale = [key for key in family.children if wanted <= set(key)]
                for key in stale:
                    del family.children[key]
                removed += len(stale)
            if removed:
                self._fast.clear()
        return removed

    # -- cross-process shipping -----------------------------------------------

    def snapshot(self) -> dict:
        """Picklable/JSON-safe dump of every family and child."""
        with self._lock:
            families = {}
            for name, family in self._families.items():
                children = {}
                for key, instrument in family.children.items():
                    if family.kind == "histogram":
                        children[key] = {
                            "counts": list(instrument.counts),
                            "sum": instrument.sum,
                            "count": instrument.count,
                        }
                    else:
                        children[key] = {"value": instrument.value}
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "buckets": list(family.buckets) if family.buckets else None,
                    "children": [[list(map(list, key)), payload] for key, payload in children.items()],
                }
            return {"families": families}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot (typically a worker's diff) into this registry.

        Counters and histograms add; gauges take the snapshot's value
        (last write wins).  Ignores the enable flag: merging shipped
        results must work even if recording was toggled meanwhile.
        """
        for name, payload in snapshot.get("families", {}).items():
            kind = payload["kind"]
            buckets = payload.get("buckets")
            for raw_key, child in payload.get("children", []):
                labels = {k: v for k, v in raw_key}
                if kind == "counter":
                    instrument = self.counter(name, payload.get("help", ""), **labels)
                    with self._lock:
                        instrument._value += child["value"]
                elif kind == "gauge":
                    instrument = self.gauge(name, payload.get("help", ""), **labels)
                    with self._lock:
                        instrument._value = child["value"]
                else:
                    instrument = self.histogram(
                        name, payload.get("help", ""), buckets=buckets or LATENCY_BUCKETS, **labels
                    )
                    counts = child["counts"]
                    if len(counts) != len(instrument.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket layout mismatch in snapshot merge"
                        )
                    with self._lock:
                        for index, extra in enumerate(counts):
                            instrument.counts[index] += extra
                        instrument.sum += child["sum"]
                        instrument.count += child["count"]

    # -- exposition -----------------------------------------------------------

    def render_prometheus(self) -> str:
        return render_prometheus([self])


def diff_snapshots(before: dict, after: dict) -> dict:
    """Delta between two snapshots of the same registry.

    Counter/histogram values subtract; gauges keep the ``after`` value.
    The result is itself a snapshot, suitable for ``merge_snapshot``.
    Families or children absent from ``before`` pass through whole.
    """
    result: dict = {"families": {}}
    before_families = before.get("families", {})
    for name, payload in after.get("families", {}).items():
        base = before_families.get(name, {})
        base_children = {tuple(map(tuple, key)): child for key, child in base.get("children", [])}
        kind = payload["kind"]
        out_children = []
        for raw_key, child in payload.get("children", []):
            key = tuple(map(tuple, raw_key))
            prior = base_children.get(key)
            if kind == "gauge" or prior is None:
                # Instrument *creation* happens even while recording is
                # disabled, so a brand-new child can still be all-zero —
                # shipping it would be noise (and, merged, would register
                # phantom series on the target registry).  Likewise an
                # unchanged gauge carries no information in a delta.
                if prior is None and kind == "counter" and not child["value"]:
                    continue
                if prior is None and kind == "histogram" and not child["count"]:
                    continue
                if kind == "gauge":
                    if prior is None and not child["value"]:
                        continue
                    if prior is not None and child["value"] == prior["value"]:
                        continue
                delta = dict(child)
            elif kind == "counter":
                delta = {"value": child["value"] - prior["value"]}
                if delta["value"] == 0:
                    continue
            else:
                delta = {
                    "counts": [a - b for a, b in zip(child["counts"], prior["counts"])],
                    "sum": child["sum"] - prior["sum"],
                    "count": child["count"] - prior["count"],
                }
                if delta["count"] == 0:
                    continue
            out_children.append([list(map(list, key)), delta])
        if out_children:
            result["families"][name] = {
                "kind": kind,
                "help": payload.get("help", ""),
                "buckets": payload.get("buckets"),
                "children": out_children,
            }
    return result


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(registries) -> str:
    """Prometheus text exposition (format 0.0.4) for one or more registries.

    When multiple registries carry the same family name (e.g. a private
    service registry plus the process-global one), the first registry's
    family wins — callers keep family names disjoint by convention.
    """
    lines: list[str] = []
    seen: set[str] = set()
    for registry in registries:
        for name, (kind, help_text, children) in sorted(registry.families().items()):
            if name in seen:
                continue
            seen.add(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(children):
                instrument = children[key]
                pairs = list(key)
                if kind == "histogram":
                    cumulative = 0
                    for index, bound in enumerate(instrument.buckets):
                        cumulative += instrument.counts[index]
                        bucket_pairs = pairs + [("le", _format_value(bound))]
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_pairs)} {cumulative}"
                        )
                    cumulative += instrument.counts[-1]
                    lines.append(
                        f"{name}_bucket{_format_labels(pairs + [('le', '+Inf')])} {cumulative}"
                    )
                    lines.append(f"{name}_sum{_format_labels(pairs)} {_format_value(instrument.sum)}")
                    lines.append(f"{name}_count{_format_labels(pairs)} {cumulative}")
                else:
                    lines.append(
                        f"{name}{_format_labels(pairs)} {_format_value(instrument.value)}"
                    )
    return "\n".join(lines) + "\n" if lines else ""

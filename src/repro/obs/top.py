"""`repro top` — a live terminal dashboard over one or more serve workers.

:class:`TopClient` composes the fleet-observability pieces end to end:
a :class:`~repro.obs.scrape.MetricsScraper` fetches every ``/metrics``
endpoint's registry snapshot as JSON, the federated snapshots feed a
:class:`~repro.obs.timeseries.TimeSeriesRecorder` ring, and
:meth:`TopClient.summary` reduces that history to the numbers an
operator watches — fleet qps, windowed p50/p99, error ratio, queue
depth — plus the same per-instance totals, so
"federated == sum of parts" is checkable from the output itself
(CI does exactly that via ``repro top --once --json``).

:func:`render` turns a summary into the interactive screen: an instance
table over unicode sparklines (:func:`sparkline`) of qps and p99 drawn
from the recorder's per-interval series.  Everything here is pure
formatting over recorder queries; nothing talks to the network except
through the scraper.
"""

from __future__ import annotations

import math

from repro.obs.timeseries import (
    TimeSeriesRecorder,
    counter_total,
    gauge_value,
    iter_children,
)
from repro.obs.scrape import MetricsScraper

__all__ = ["TopClient", "sparkline", "render"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"

# The metric vocabulary the dashboard reads (all emitted by repro.serve).
QUERIES = "repro_serve_queries_total"
HTTP_REQUESTS = "repro_http_requests_total"
HTTP_SECONDS = "repro_http_request_seconds"
QUEUE_DEPTH = "repro_batcher_queue_depth"
# Quality families (emitted by repro.obs.quality through the sessions).
PREQUENTIAL = "repro_quality_prequential_total"
QUALITY_FLIPS = "repro_quality_flips_total"
QUALITY_DRIFT = "repro_quality_drift"


def sparkline(values, width: int = 30) -> str:
    """Unicode block sparkline of the last ``width`` values ('' when empty)."""
    values = [float(v) for v in values if v == v][-width:]  # drop NaNs
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK_CHARS[0] * len(values)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int(round((value - low) / span * steps))] for value in values
    )


def _ratio(numerator, denominator) -> float | None:
    if numerator is None or denominator is None or denominator <= 0:
        return None
    return numerator / denominator


def _max_gauge(snapshot: dict, name: str) -> float | None:
    """Max over a gauge family's children (drift: worst session wins —
    the instance-summing federation semantics would add unrelated
    sessions' drifts together)."""
    values = [
        float(payload.get("value", 0.0))
        for _, payload in iter_children(snapshot, name)
    ]
    return max(values) if values else None


def _accuracy_series(recorder, window_seconds: float) -> list[tuple[float, float]]:
    """Per-interval prequential accuracy (delta correct / delta scored)."""
    points: list[tuple[float, float]] = []
    previous: tuple[float, float, float] | None = None
    for ts, snapshot in recorder.window(window_seconds):
        correct = counter_total(snapshot, PREQUENTIAL, {"outcome": "correct"})
        wrong = counter_total(snapshot, PREQUENTIAL, {"outcome": "wrong"})
        if correct is None and wrong is None:
            continue
        correct = correct or 0.0
        scored = correct + (wrong or 0.0)
        if previous is not None:
            _, prev_correct, prev_scored = previous
            delta_scored = scored - prev_scored
            delta_correct = correct - prev_correct
            if delta_scored > 0 and delta_correct >= 0:
                points.append((ts, delta_correct / delta_scored))
        previous = (ts, correct, scored)
    return points


def _drift_series(recorder, window_seconds: float) -> list[tuple[float, float]]:
    """Worst-session drift per sample."""
    points: list[tuple[float, float]] = []
    for ts, snapshot in recorder.window(window_seconds):
        value = _max_gauge(snapshot, QUALITY_DRIFT)
        if value is not None:
            points.append((ts, value))
    return points


class TopClient:
    """Scrape N endpoints into a recorder and summarize the fleet."""

    def __init__(
        self,
        endpoints,
        interval_seconds: float = 1.0,
        window_seconds: float = 60.0,
        timeout: float = 2.0,
        capacity: int = 600,
        clock=None,
    ) -> None:
        self.scraper = MetricsScraper(endpoints, timeout=timeout)
        self.window_seconds = float(window_seconds)
        self.last_scrape: dict | None = None

        def source() -> dict:
            result = self.scraper.scrape()
            self.last_scrape = result
            return result["snapshot"]

        kwargs = {} if clock is None else {"clock": clock}
        self.recorder = TimeSeriesRecorder(
            source, interval_seconds=interval_seconds, capacity=capacity, **kwargs
        )

    def poll(self) -> None:
        """One scrape-and-record round (the CLI loop's body)."""
        self.recorder.sample()

    # ------------------------------------------------------------- summary
    def _instance_row(self, state: dict) -> dict:
        snapshot = state.get("snapshot")
        row = {"up": state["up"], "error": state["error"]}
        if snapshot is None:
            row.update(queries_total=None, http_requests_total=None, gauges={})
            return row
        row["queries_total"] = counter_total(snapshot, QUERIES)
        row["http_requests_total"] = counter_total(snapshot, HTTP_REQUESTS)
        # Every gauge family, summed per instance: counters and histograms
        # reach the JSON output through the recorder series, but gauges
        # (queue depth, the quality drift gauge) were invisible per
        # instance before this.
        row["gauges"] = {
            name: counter_total(snapshot, name)
            for name, family in sorted(snapshot.get("families", {}).items())
            if family.get("kind") == "gauge"
        }
        return row

    def summary(self) -> dict:
        """The fleet state as one JSON-safe dict (``repro top --once --json``).

        ``fleet.queries_total`` comes from the *federated* snapshot while
        each ``instances[*].queries_total`` comes from that worker's own
        scrape — by construction of the instance-label merge the former is
        the sum of the latter, and the CI smoke test asserts exactly that.
        """
        window = self.window_seconds
        recorder = self.recorder
        scrape = self.last_scrape or {"instances": {}}
        instances = {
            name: self._instance_row(state)
            for name, state in sorted(scrape.get("instances", {}).items())
        }
        latest = recorder.latest()
        federated = latest[1] if latest is not None else {"families": {}}
        fleet = {
            "queries_total": counter_total(federated, QUERIES),
            "http_requests_total": counter_total(federated, HTTP_REQUESTS),
            "qps": recorder.counter_rate(QUERIES, window),
            "http_qps": recorder.counter_rate(HTTP_REQUESTS, window),
            "error_rate": recorder.counter_rate(HTTP_REQUESTS, window, status="5.."),
            "p50_seconds": recorder.quantile(HTTP_SECONDS, 0.50, window),
            "p99_seconds": recorder.quantile(HTTP_SECONDS, 0.99, window),
            "queue_depth": gauge_value(federated, QUEUE_DEPTH),
        }
        # Fleet quality: prequential counters sum across instances (the
        # accuracy is therefore example-weighted); the drift gauge takes
        # the worst session anywhere in the fleet.
        correct = counter_total(federated, PREQUENTIAL, {"outcome": "correct"})
        wrong = counter_total(federated, PREQUENTIAL, {"outcome": "wrong"})
        scored = (correct or 0.0) + (wrong or 0.0)
        window_correct = recorder.counter_delta(
            PREQUENTIAL, window, outcome="correct"
        )
        window_wrong = recorder.counter_delta(PREQUENTIAL, window, outcome="wrong")
        window_scored = (window_correct or 0.0) + (window_wrong or 0.0)
        quality = {
            "scored": scored,
            "accuracy": _ratio(correct, scored),
            "window_accuracy": _ratio(window_correct, window_scored),
            "drift_max": _max_gauge(federated, QUALITY_DRIFT),
            "flips_total": counter_total(federated, QUALITY_FLIPS),
        }
        return {
            "window_seconds": window,
            "samples": len(recorder),
            "instances_up": sum(1 for row in instances.values() if row["up"]),
            "instances": instances,
            "fleet": fleet,
            "quality": quality,
        }


# ------------------------------------------------------------------ rendering
def _fmt(value, unit: str = "", precision: int = 1) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{precision}f}{unit}"


def render(client: TopClient, width: int = 30) -> str:
    """The full-screen dashboard body for one refresh."""
    summary = client.summary()
    fleet = summary["fleet"]
    quality = summary["quality"]
    recorder = client.recorder
    window = summary["window_seconds"]
    lines = [
        f"repro top — {summary['instances_up']}/{len(summary['instances'])} "
        f"instances up, {summary['samples']} samples, {window:g}s window",
        "",
        f"  qps        {_fmt(fleet['qps'])}"
        f"   http {_fmt(fleet['http_qps'])}/s"
        f"   errors {_fmt(fleet['error_rate'], '/s', 2)}",
        f"  latency    p50 {_fmt(_ms(fleet['p50_seconds']), 'ms')}"
        f"   p99 {_fmt(_ms(fleet['p99_seconds']), 'ms')}",
        f"  queue      {_fmt(fleet['queue_depth'], '', 0)}",
        f"  quality    acc {_fmt(_pct(quality['accuracy']), '%')}"
        f" ({_fmt(quality['scored'], '', 0)} scored)"
        f"   drift {_fmt(quality['drift_max'], '', 3)}"
        f"   flips {_fmt(quality['flips_total'], '', 0)}",
        "",
    ]
    qps_series = [v for _, v in recorder.series(QUERIES, window)]
    depth_series = [v for _, v in recorder.series(QUEUE_DEPTH, window, kind="gauge")]
    lines.append(f"  qps   {sparkline(qps_series, width)}")
    lines.append(f"  queue {sparkline(depth_series, width)}")
    accuracy_series = [v for _, v in _accuracy_series(recorder, window)]
    drift_series = [v for _, v in _drift_series(recorder, window)]
    if accuracy_series or drift_series:
        lines.append(f"  acc   {sparkline(accuracy_series, width)}")
        lines.append(f"  drift {sparkline(drift_series, width)}")
    lines.append("")
    lines.append(f"  {'instance':<24} {'up':<5} {'queries':>12} {'http':>12}")
    for name, row in summary["instances"].items():
        status = "up" if row["up"] else "DOWN"
        lines.append(
            f"  {name:<24} {status:<5}"
            f" {_fmt(row['queries_total'], '', 0):>12}"
            f" {_fmt(row['http_requests_total'], '', 0):>12}"
        )
        if row["error"]:
            lines.append(f"    ! {row['error']}")
    return "\n".join(lines) + "\n"


def _ms(seconds) -> float | None:
    return None if seconds is None else seconds * 1000.0


def _pct(ratio) -> float | None:
    return None if ratio is None else ratio * 100.0

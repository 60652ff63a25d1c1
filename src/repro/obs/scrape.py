"""Multi-endpoint federation of registry snapshots.

The wire format is the registry's own *snapshot* dict
(:meth:`~repro.obs.registry.MetricsRegistry.snapshot`): a serve worker
returns it as JSON when a ``GET /metrics`` request sends ``Accept:
application/json``, and Prometheus text stays the default for outside
scrapers.  Everything downstream — merging, diffing, time-series
recording — consumes that shape directly, so nothing here parses text.

* :func:`federate` — fetch each endpoint's snapshot, join an
  ``instance`` label onto every series (:func:`label_snapshot`) and merge
  them into one registry (:func:`federate_snapshots`).  Counters then sum
  across the fleet by construction (``merge_snapshot`` adds
  disjointly-labeled children), so N serve workers read as one system.
  The router's federated ``/metrics`` and :class:`MetricsScraper` both
  call it.
* :class:`MetricsScraper` — the polling client behind ``repro top``: N
  endpoints, one :func:`federate` per round, per-instance up/down state.

Everything is stdlib-only (``urllib``), matching the serve tier's
dependency posture.
"""

from __future__ import annotations

import json
import urllib.request

from repro.obs.registry import MetricsRegistry

__all__ = [
    "label_snapshot",
    "federate_snapshots",
    "federate",
    "MetricsScraper",
    "normalize_endpoint",
]


def label_snapshot(snapshot: dict, **extra_labels) -> dict:
    """A copy of ``snapshot`` with ``extra_labels`` joined onto every child.

    The federation primitive: label each worker's snapshot with its
    ``instance`` before merging, and per-worker series stay distinct while
    fleet totals come from summing over the label.
    """
    extra = sorted((k, str(v)) for k, v in extra_labels.items())
    families = {}
    for name, payload in snapshot.get("families", {}).items():
        children = []
        for raw_key, child in payload.get("children", []):
            base = [list(pair) for pair in raw_key if pair[0] not in extra_labels]
            key = sorted(base + [list(pair) for pair in extra])
            children.append([key, child])
        families[name] = {**payload, "children": children}
    return {"families": families}


def federate_snapshots(labeled_snapshots) -> MetricsRegistry:
    """Merge labeled snapshots into one fresh registry (fleet totals sum)."""
    registry = MetricsRegistry()
    for snapshot in labeled_snapshots:
        registry.merge_snapshot(snapshot)
    return registry


def _fetch_snapshot(url: str, timeout: float) -> dict:
    """GET one ``/metrics`` endpoint's registry snapshot as JSON."""
    request = urllib.request.Request(url, headers={"Accept": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        snapshot = json.loads(response.read().decode("utf-8"))
    if not isinstance(snapshot, dict) or not isinstance(snapshot.get("families"), dict):
        raise ValueError(f"{url} did not return a metrics snapshot")
    return snapshot


def federate(targets, timeout: float, local: dict | None = None):
    """Fetch, label and merge the snapshots of ``(instance, url)`` targets.

    ``local`` maps further instance names to snapshots already in hand
    (the router's own registry).  Returns ``(instances, registry)``:
    ``instances`` holds ``{"up", "error", "snapshot"}`` per target, and a
    target that cannot be fetched is reported down and contributes nothing
    — a scrape miss never fails the federation.
    """
    labeled = [
        label_snapshot(snapshot, instance=instance)
        for instance, snapshot in (local or {}).items()
    ]
    instances: dict[str, dict] = {}
    for instance, url in targets:
        try:
            snapshot = _fetch_snapshot(url, timeout)
        except (OSError, ValueError) as exc:  # URLError is an OSError
            instances[instance] = {"up": False, "error": str(exc), "snapshot": None}
            continue
        instances[instance] = {"up": True, "error": None, "snapshot": snapshot}
        labeled.append(label_snapshot(snapshot, instance=instance))
    return instances, federate_snapshots(labeled)


def normalize_endpoint(endpoint: str) -> tuple[str, str]:
    """``(instance, url)`` from an endpoint spec.

    Accepts full URLs (``http://host:port/metrics``), bare authorities
    (``host:port``), or bare ports (``:8151`` — localhost implied); the
    instance name is the authority, the join key federation labels with.
    """
    spec = endpoint.strip()
    if spec.startswith(":") and spec[1:].isdigit():
        spec = f"127.0.0.1{spec}"
    if "//" not in spec:
        spec = "http://" + spec
    scheme, _, rest = spec.partition("//")
    authority, _, path = rest.partition("/")
    if not authority:
        raise ValueError(f"invalid metrics endpoint {endpoint!r}")
    if not path:
        path = "metrics"
    return authority, f"{scheme}//{authority}/{path}"


class MetricsScraper:
    """Polls N ``/metrics`` endpoints and federates them by ``instance``.

    A down instance never fails the scrape — it is reported with
    ``up: false`` and simply contributes nothing to the federated
    snapshot, which is exactly how a fleet dashboard must behave while a
    worker restarts.
    """

    def __init__(self, endpoints, timeout: float = 2.0) -> None:
        if not endpoints:
            raise ValueError("MetricsScraper needs at least one endpoint")
        self.targets = [normalize_endpoint(endpoint) for endpoint in endpoints]
        seen = set()
        for instance, _ in self.targets:
            if instance in seen:
                raise ValueError(f"duplicate metrics endpoint {instance!r}")
            seen.add(instance)
        self.timeout = float(timeout)

    def scrape(self) -> dict:
        """One polling round.

        Returns ``{"instances": {instance: {"up", "error", "snapshot"}},
        "snapshot": federated}`` where ``federated`` unions every live
        instance's series under its ``instance`` label.
        """
        instances, registry = federate(self.targets, self.timeout)
        return {"instances": instances, "snapshot": registry.snapshot()}

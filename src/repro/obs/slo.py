"""Declarative SLO / alert rules evaluated over recorded time series.

A :class:`SloSpec` is a JSON-loadable list of rules; each rule names a
metric, a window, and a bound, and evaluates against a
:class:`~repro.obs.timeseries.TimeSeriesRecorder` to a
:class:`RuleStatus`.  The serve layer attaches a spec to its recorder
(``repro serve --slo spec.json``): every sample re-evaluates the rules,
``GET /healthz`` degrades to 503 while any rule fires (naming it), and
``GET /alerts`` lists every status.

Rule kinds (``kind`` field), each with a reader among the shipped specs:

``quantile_max``
    Sliding-window histogram quantile must stay <= ``max`` (latency SLOs:
    ``{"metric": "repro_http_request_seconds", "q": 0.99, "max": 0.25}``).
``min_quantile``
    Sliding-window histogram quantile must stay >= ``min`` — the
    quality-floor dual of ``quantile_max`` (accuracy SLOs:
    ``{"metric": "repro_quality_prequential_accuracy", "q": 0.5,
    "min": 0.6}``).
``gauge_max``
    Latest gauge total must stay <= ``max`` (queue depth, quality drift).
``ratio_max``
    Windowed increase of ``metric`` over that of ``denominator`` must stay
    <= ``max`` (the classic 5xx error *ratio*).

Label selectors (``labels`` / ``denominator_labels``) are regex-fullmatch
maps, so ``{"status": "5.."}`` selects the whole 5xx class.  Rules with
insufficient recorded history report ``ok`` with ``data: false`` — a
just-started service is not degraded, it is unknown.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RuleStatus", "SloRule", "SloSpec", "SloSpecError"]

_KINDS = ("quantile_max", "min_quantile", "gauge_max", "ratio_max")


class SloSpecError(ValueError):
    """The SLO spec file/dict is malformed; names the offending rule."""


@dataclass
class RuleStatus:
    """One rule's latest evaluation."""

    name: str
    kind: str
    ok: bool
    value: float | None
    threshold: float
    data: bool  # enough recorded history to evaluate?
    detail: str = ""

    @property
    def firing(self) -> bool:
        """A rule fires only on real data — no data means unknown, not bad."""
        return self.data and not self.ok

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "firing": self.firing,
            "value": self.value,
            "threshold": self.threshold,
            "data": self.data,
            "detail": self.detail,
        }


def _require(condition: bool, rule_name: str, message: str) -> None:
    if not condition:
        raise SloSpecError(f"rule {rule_name!r}: {message}")


@dataclass
class SloRule:
    """One declarative rule (see module docstring for the kinds)."""

    name: str
    kind: str
    metric: str
    labels: dict = field(default_factory=dict)
    window_seconds: float = 60.0
    # quantile_max / min_quantile
    q: float = 0.99
    # min_quantile's floor, every other kind's ceiling
    max: float | None = None
    min: float | None = None
    # ratio_max
    denominator: str | None = None
    denominator_labels: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: dict) -> "SloRule":
        if not isinstance(payload, dict):
            raise SloSpecError(f"rule must be an object, got {type(payload).__name__}")
        name = payload.get("name")
        _require(isinstance(name, str) and bool(name), str(name), "needs a non-empty 'name'")
        kind = payload.get("kind")
        _require(kind in _KINDS, name, f"unknown kind {kind!r} (valid: {', '.join(_KINDS)})")
        metric = payload.get("metric")
        _require(isinstance(metric, str) and bool(metric), name, "needs a 'metric' name")
        known = {
            "name", "kind", "metric", "labels", "window_seconds", "q", "max",
            "min", "denominator", "denominator_labels",
        }
        unknown = set(payload) - known
        _require(not unknown, name, f"unknown fields {sorted(unknown)}")
        rule = cls(
            name=name,
            kind=kind,
            metric=metric,
            labels=dict(payload.get("labels") or {}),
            window_seconds=float(payload.get("window_seconds", 60.0)),
            q=float(payload.get("q", 0.99)),
            max=None if payload.get("max") is None else float(payload["max"]),
            min=None if payload.get("min") is None else float(payload["min"]),
            denominator=payload.get("denominator"),
            denominator_labels=dict(payload.get("denominator_labels") or {}),
        )
        bound = "min" if kind == "min_quantile" else "max"
        _require(getattr(rule, bound) is not None, name, f"kind {kind} needs '{bound}'")
        if kind in ("quantile_max", "min_quantile"):
            _require(0.0 < rule.q < 1.0, name, "'q' must be in (0, 1)")
        if kind == "ratio_max":
            _require(bool(rule.denominator), name, f"kind {kind} needs 'denominator'")
        return rule

    # ------------------------------------------------------------ evaluation
    def evaluate(self, recorder) -> RuleStatus:
        if self.kind == "gauge_max":
            value, measured = recorder.gauge(self.metric, **self.labels), "gauge"
        elif self.kind == "ratio_max":
            value, measured = self._ratio(recorder), f"ratio over {self.window_seconds:g}s"
        else:
            value = recorder.quantile(
                self.metric, self.q, self.window_seconds, **self.labels
            )
            measured = f"p{self.q * 100:g} over {self.window_seconds:g}s"
        floor = self.kind == "min_quantile"
        threshold = self.min if floor else self.max
        if value is None:
            return RuleStatus(
                name=self.name, kind=self.kind, ok=True, value=None,
                threshold=float(threshold), data=False, detail="insufficient history",
            )
        ok = value >= threshold if floor else value <= threshold
        relation = (">=" if ok else "<") if floor else ("<=" if ok else ">")
        return RuleStatus(
            name=self.name, kind=self.kind, ok=ok, value=float(value),
            threshold=float(threshold), data=True,
            detail=f"{measured} = {value:.6g} ({relation} {threshold:g})",
        )

    def _ratio(self, recorder) -> float | None:
        numerator = recorder.counter_delta(
            self.metric, self.window_seconds, **self.labels
        )
        denominator = recorder.counter_delta(
            self.denominator, self.window_seconds, **self.denominator_labels
        )
        if denominator is None or denominator <= 0:
            return None  # no traffic: a ratio over zero events is undefined
        return (numerator or 0.0) / denominator


@dataclass
class SloSpec:
    """An ordered list of rules loaded from JSON."""

    rules: list

    @classmethod
    def from_dict(cls, payload: dict) -> "SloSpec":
        if not isinstance(payload, dict) or "rules" not in payload:
            raise SloSpecError("spec must be an object with a 'rules' list")
        raw_rules = payload["rules"]
        if not isinstance(raw_rules, list) or not raw_rules:
            raise SloSpecError("'rules' must be a non-empty list")
        unknown = set(payload) - {"rules", "name", "description"}
        if unknown:
            raise SloSpecError(f"unknown spec fields {sorted(unknown)}")
        rules = [SloRule.from_dict(rule) for rule in raw_rules]
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SloSpecError(f"duplicate rule names {sorted(duplicates)}")
        return cls(rules=rules)

    @classmethod
    def from_json(cls, path) -> "SloSpec":
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SloSpecError(f"could not read SLO spec {path}: {exc}") from exc
        return cls.from_dict(payload)

    def evaluate(self, recorder) -> list[RuleStatus]:
        return [rule.evaluate(recorder) for rule in self.rules]

"""SLO rule evaluation and spec validation tests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs.slo import SloRule, SloSpec, SloSpecError
from repro.obs.timeseries import TimeSeriesRecorder, registry_source


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def registry():
    with obs.use_registry() as reg:
        yield reg


@pytest.fixture()
def recorder(registry):
    clock = FakeClock()
    rec = TimeSeriesRecorder(
        registry_source([registry]), interval_seconds=1.0, clock=clock
    )
    rec.clock = clock  # test handle
    return rec


SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


def rule(**payload) -> SloRule:
    payload.setdefault("name", "r")
    return SloRule.from_dict(payload)


class TestSpecValidation:
    def test_minimal_spec_loads(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "rules": [
                {"name": "p99", "kind": "quantile_max",
                 "metric": "lat_seconds", "q": 0.99, "max": 0.25},
            ],
        }))
        spec = SloSpec.from_json(path)
        assert len(spec.rules) == 1
        assert spec.rules[0].q == 0.99

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "quantile_max", "metric": "m"}, "needs 'max'"),
        ({"kind": "gauge_max", "metric": "m"}, "needs 'max'"),
        ({"kind": "nope", "metric": "m"}, "unknown kind"),
        ({"kind": "gauge_max", "metric": "m", "max": 1, "wat": 2}, "unknown fields"),
        ({"kind": "ratio_max", "metric": "m", "max": 1}, "needs 'denominator'"),
        ({"kind": "ratio_max", "metric": "m", "max": 1, "denominator": "d",
          "budget": 0.01}, "unknown fields"),
        ({"kind": "quantile_max", "metric": "m", "max": 1, "q": 2}, "'q'"),
        ({"kind": "min_quantile", "metric": "m", "q": 0.5}, "needs 'min'"),
        ({"kind": "min_quantile", "metric": "m", "min": 0.6, "q": 0}, "'q'"),
    ])
    def test_invalid_rules_raise_naming_the_rule(self, payload, message):
        payload.setdefault("name", "bad-rule")
        with pytest.raises(SloSpecError, match="bad-rule") as excinfo:
            SloRule.from_dict(payload)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("kind", ["rate_max", "rate_min", "gauge_min", "burn_rate"])
    def test_removed_kinds_list_the_valid_ones(self, kind):
        with pytest.raises(SloSpecError, match="unknown kind") as excinfo:
            SloRule.from_dict({"name": "old", "kind": kind, "metric": "m",
                               "min": 1, "max": 1})
        assert "valid: quantile_max, min_quantile, gauge_max, ratio_max" in str(
            excinfo.value
        )

    @pytest.mark.parametrize("name, kinds", [
        ("serve_slo.json", {"p99-latency": "quantile_max",
                            "error-ratio": "ratio_max",
                            "queue-depth": "gauge_max"}),
        ("quality_slo.json", {"prequential-accuracy-floor": "min_quantile",
                              "compatibility-drift-ceiling": "gauge_max"}),
    ])
    def test_shipped_specs_load(self, name, kinds):
        spec = SloSpec.from_json(SPECS / name)
        assert {r.name: r.kind for r in spec.rules} == kinds

    def test_duplicate_names_rejected(self):
        with pytest.raises(SloSpecError, match="duplicate"):
            SloSpec.from_dict({"rules": [
                {"name": "x", "kind": "gauge_max", "metric": "m", "max": 1},
                {"name": "x", "kind": "gauge_max", "metric": "m", "max": 2},
            ]})

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(SloSpecError, match="could not read"):
            SloSpec.from_json(tmp_path / "missing.json")


class TestEvaluation:
    def test_no_data_is_ok_not_firing(self, recorder):
        status = rule(
            kind="ratio_max", metric="err_total", denominator="all_total", max=1.0,
        ).evaluate(recorder)
        assert status.ok and not status.firing and not status.data

    def test_quantile_max_with_label_selector(self, registry, recorder):
        histogram = registry.histogram(
            "lat_seconds", "", buckets=[0.1, 1.0], method="POST"
        )
        recorder.sample()
        for _ in range(20):
            histogram.observe(0.5)
        recorder.clock.advance(1.0)
        recorder.sample()
        breached = rule(
            kind="quantile_max", metric="lat_seconds", q=0.9, max=0.2,
            labels={"method": "POST"},
        ).evaluate(recorder)
        assert breached.firing
        other_label = rule(
            kind="quantile_max", metric="lat_seconds", q=0.9, max=0.2,
            labels={"method": "GET"},
        ).evaluate(recorder)
        assert not other_label.data  # selector matched nothing

    def test_min_quantile_floor(self, registry, recorder):
        from repro.obs.quality import ACCURACY_BUCKETS

        histogram = registry.histogram(
            "repro_quality_prequential_accuracy", "",
            buckets=list(ACCURACY_BUCKETS),
        )
        recorder.sample()
        for _ in range(10):
            histogram.observe(0.95)
        recorder.clock.advance(1.0)
        recorder.sample()
        floor = rule(
            kind="min_quantile",
            metric="repro_quality_prequential_accuracy", q=0.5, min=0.6,
        )
        assert floor.evaluate(recorder).ok
        # Accuracy collapses: the median of the window drops under the floor.
        for _ in range(40):
            histogram.observe(0.15)
        recorder.clock.advance(1.0)
        recorder.sample()
        status = floor.evaluate(recorder)
        assert status.firing
        assert status.value < 0.6
        assert "<" in status.detail

    def test_min_quantile_no_data_is_ok(self, recorder):
        status = rule(
            kind="min_quantile", metric="missing_seconds", q=0.5, min=0.6,
        ).evaluate(recorder)
        assert status.ok and not status.data

    def test_gauge_bounds(self, registry, recorder):
        registry.gauge("depth", "").set(90)
        recorder.sample()
        assert rule(kind="gauge_max", metric="depth", max=100).evaluate(recorder).ok
        status = rule(kind="gauge_max", metric="depth", max=50).evaluate(recorder)
        assert status.firing
        assert status.detail == "gauge = 90 (> 50)"

    def test_ratio_max_regex_selector(self, registry, recorder):
        errors = registry.counter("http_total", "", status="503")
        successes = registry.counter("http_total", "", status="200")
        recorder.sample()
        errors.inc(5)
        successes.inc(95)
        recorder.clock.advance(10.0)
        recorder.sample()
        status = rule(
            kind="ratio_max", metric="http_total", denominator="http_total",
            max=0.01, labels={"status": "5.."},
        ).evaluate(recorder)
        assert status.firing
        assert status.value == pytest.approx(0.05)
        assert status.detail == "ratio over 60s = 0.05 (> 0.01)"

    def test_ratio_max_without_traffic_in_the_window_is_ok(self, registry, recorder):
        # The counters exist but did not move: a ratio over zero events is
        # undefined, so the rule reports no data rather than 0 or a breach.
        registry.counter("http_total", "", status="503").inc(3)
        registry.counter("http_total", "", status="200").inc(7)
        recorder.sample()
        recorder.clock.advance(10.0)
        recorder.sample()
        status = rule(
            kind="ratio_max", metric="http_total", denominator="http_total",
            max=0.01, labels={"status": "5.."},
        ).evaluate(recorder)
        assert status.ok and not status.data
        assert status.detail == "insufficient history"

    def test_ratio_max_denominator_labels_select_the_base(self, registry, recorder):
        errors = registry.counter("http_total", "", status="500", path="/q")
        queries = registry.counter("http_total", "", status="200", path="/q")
        other = registry.counter("http_total", "", status="200", path="/healthz")
        recorder.sample()
        errors.inc(2)
        queries.inc(8)
        other.inc(990)
        recorder.clock.advance(10.0)
        recorder.sample()
        status = rule(
            kind="ratio_max", metric="http_total", denominator="http_total",
            max=0.1, labels={"status": "5.."},
            denominator_labels={"path": "/q"},
        ).evaluate(recorder)
        # 2 errors over the 10 /q requests, not over all 1000 requests.
        assert status.value == pytest.approx(0.2)
        assert status.firing


class TestRecorderIntegration:
    def test_attach_slo_statuses_and_alert_transitions(self, registry, recorder):
        spec = SloSpec.from_dict({"rules": [
            {"name": "depth", "kind": "gauge_max", "metric": "q_depth", "max": 10},
        ]})
        recorder.attach_slo(spec)
        transitions = []
        recorder.on_alert = lambda status, firing: transitions.append(
            (status.name, firing)
        )
        gauge = registry.gauge("q_depth", "")
        gauge.set(5)
        recorder.sample()
        assert recorder.firing() == []
        gauge.set(50)
        recorder.clock.advance(1.0)
        recorder.sample()
        assert [s.name for s in recorder.firing()] == ["depth"]
        gauge.set(5)
        recorder.clock.advance(1.0)
        recorder.sample()
        assert recorder.firing() == []
        # One transition up, one down — not one event per sample.
        assert transitions == [("depth", True), ("depth", False)]

    def test_status_to_dict_shape(self, registry, recorder):
        registry.gauge("q_depth", "").set(50)
        recorder.attach_slo(SloSpec.from_dict({"rules": [
            {"name": "depth", "kind": "gauge_max", "metric": "q_depth", "max": 10},
        ]}))
        recorder.sample()
        payload = recorder.statuses()[0].to_dict()
        assert payload["firing"] is True
        assert set(payload) == {
            "name", "kind", "ok", "firing", "value", "threshold", "data", "detail",
        }

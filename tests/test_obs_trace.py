"""Unit tests for repro.obs tracing and the offline trace report."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs


@pytest.fixture()
def sink():
    """Install an in-memory list sink for the test, restoring the old one."""
    records: list[dict] = []
    previous = obs.configure_tracing(records.append)
    yield records
    obs.configure_tracing(previous)


class TestSpans:
    def test_inactive_without_sink_returns_shared_null_span(self):
        previous = obs.configure_tracing(None)
        try:
            assert not obs.tracing_active()
            first = obs.span("a")
            second = obs.span("b")
            assert first is second  # the shared no-op instance
            with first as entered:
                entered.annotate(ignored=True)
                assert obs.current_context() is None
        finally:
            obs.configure_tracing(previous)

    def test_nested_spans_share_trace_and_parent(self, sink):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        assert [record["name"] for record in sink] == ["inner", "outer"]
        inner, outer = sink
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert inner["duration_ms"] >= 0.0

    def test_attrs_and_annotate_recorded(self, sink):
        with obs.span("solve", graph="g") as active:
            active.annotate(mode="full")
        assert sink[0]["attrs"] == {"graph": "g", "mode": "full"}

    def test_exception_marks_span_and_propagates(self, sink):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert sink[0]["error"] == "RuntimeError"

    def test_trace_id_override_seeds_root(self, sink):
        with obs.span("request", trace_id="feedface00000000"):
            with obs.span("child"):
                pass
        assert all(record["trace"] == "feedface00000000" for record in sink)

    def test_context_restored_after_span(self, sink):
        assert obs.current_context() is None
        with obs.span("outer"):
            assert obs.current_context() is not None
        assert obs.current_context() is None

    def test_disabled_switch_turns_tracing_off(self, sink):
        previous = obs.set_enabled(False)
        try:
            assert not obs.tracing_active()
            with obs.span("ghost"):
                pass
        finally:
            obs.set_enabled(previous)
        assert sink == []


class TestCrossThread:
    def test_emit_span_parents_to_captured_context(self, sink):
        captured = {}

        def worker():
            # A fresh thread has no ambient context; the captured one from
            # the submitting thread is the only link.
            assert obs.current_context() is None
            obs.emit_span("hop", 0.001, parent=captured["ctx"], coalesced=2)

        with obs.span("submit"):
            captured["ctx"] = obs.capture_context()
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {record["name"]: record for record in sink}
        assert by_name["hop"]["trace"] == by_name["submit"]["trace"]
        assert by_name["hop"]["parent"] == by_name["submit"]["span"]
        assert by_name["hop"]["attrs"] == {"coalesced": 2}

    def test_emit_span_without_parent_starts_fresh_trace(self, sink):
        context = obs.emit_span("orphan", 0.002)
        assert context is not None
        assert sink[0]["parent"] is None
        assert sink[0]["trace"] == context.trace_id

    def test_emit_span_inactive_returns_none(self):
        previous = obs.configure_tracing(None)
        try:
            assert obs.emit_span("nothing", 0.001) is None
        finally:
            obs.configure_tracing(previous)


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = obs.JsonlTraceSink(path)
        previous = obs.configure_tracing(sink)
        try:
            with obs.span("alpha", graph="g"):
                pass
            with obs.span("beta"):
                pass
        finally:
            obs.configure_tracing(previous)
            sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "alpha"

    def test_read_trace_tolerates_truncated_final_line(self, tmp_path):
        # The result-store contract: a torn final append (writer killed
        # mid-line) is dropped, everything before it parses normally.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"name": "ok", "duration_ms": 1.0, "trace": "t", "span": "s"}\n'
            '{"name": "truncat'
        )
        records = obs.read_trace(path)
        assert len(records) == 1
        assert records[0]["name"] == "ok"

    def test_read_trace_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"name": "ok", "duration_ms": 1.0, "trace": "t", "span": "s"}\n'
            "not json\n"
            '{"name": "later", "duration_ms": 2.0, "trace": "t", "span": "u"}\n'
        )
        with pytest.raises(obs.TraceReadError, match="line 2"):
            obs.read_trace(path)

    def test_read_trace_raises_on_non_span_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"missing": "fields"}\n'
            '{"name": "ok", "duration_ms": 1.0, "trace": "t", "span": "s"}\n'
        )
        with pytest.raises(obs.TraceReadError, match="line 1"):
            obs.read_trace(path)


class TestReport:
    def _records(self):
        return [
            {"trace": "t1", "span": "a", "parent": None, "name": "request",
             "ts": 1.0, "duration_ms": 10.0, "attrs": {"path": "/q"}},
            {"trace": "t1", "span": "b", "parent": "a", "name": "solve",
             "ts": 1.001, "duration_ms": 8.0},
            {"trace": "t2", "span": "c", "parent": None, "name": "request",
             "ts": 2.0, "duration_ms": 4.0},
        ]

    def test_summarize_spans_aggregates_by_name(self):
        rows = obs.summarize_spans(self._records())
        by_name = {row["name"]: row for row in rows}
        assert by_name["request"]["count"] == 2
        assert by_name["request"]["total_ms"] == pytest.approx(14.0)
        assert by_name["solve"]["max_ms"] == pytest.approx(8.0)
        # Sorted by total descending.
        assert rows[0]["name"] == "request"

    def test_render_report_contains_table_and_tree(self):
        text = obs.render_trace_report(self._records(), slowest=1)
        assert "3 spans across 2 traces" in text
        assert "request" in text and "solve" in text
        assert "slowest trace t1" in text
        assert "[path=/q]" in text

    def test_render_empty(self):
        assert "no spans" in obs.render_trace_report([])

    def test_render_trace_tree_selects_one_trace(self):
        text = obs.render_trace_tree(self._records(), "t1")
        assert text.startswith("trace t1: 2 spans")
        assert "request" in text and "solve" in text
        assert "t2" not in text

    def test_render_trace_tree_accepts_unique_prefix(self):
        records = [
            {"trace": "feedface00000000", "span": "a", "parent": None,
             "name": "request", "ts": 1.0, "duration_ms": 1.0},
            {"trace": "0badc0de00000000", "span": "b", "parent": None,
             "name": "request", "ts": 2.0, "duration_ms": 1.0},
        ]
        assert "trace feedface00000000" in obs.render_trace_tree(records, "feed")

    def test_render_trace_tree_unknown_and_ambiguous_raise(self):
        records = self._records()
        with pytest.raises(ValueError, match="no trace"):
            obs.render_trace_tree(records, "zzz")
        with pytest.raises(ValueError, match="ambiguous"):
            obs.render_trace_tree(records, "t")


@pytest.fixture()
def full_sampling():
    """Restore the (probability, slow_ms) pair after a test perturbs it."""
    previous = obs.sampling()
    yield
    obs.configure_sampling(*previous)


class TestHeadSampling:
    def test_decision_is_deterministic_in_trace_id(self, full_sampling):
        obs.configure_sampling(probability=0.5)
        ids = [obs.new_trace_id() for _ in range(200)]
        first = [obs.trace_sampled(tid) for tid in ids]
        second = [obs.trace_sampled(tid) for tid in ids]
        assert first == second
        # Roughly half kept (hash-uniform ids; wide tolerance, no flakes).
        kept = sum(first)
        assert 40 <= kept <= 160

    def test_probability_bounds(self, full_sampling):
        obs.configure_sampling(probability=1.0)
        assert obs.trace_sampled("ffffffffffffffff")
        obs.configure_sampling(probability=0.0)
        assert not obs.trace_sampled("0000000000000000")

    def test_unsampled_trace_drops_whole_tree(self, sink, full_sampling):
        obs.configure_sampling(probability=0.0, slow_ms=1e9)
        with obs.span("root"):
            with obs.span("child"):
                pass
        assert sink == []

    def test_children_inherit_root_decision(self, sink, full_sampling):
        # p=0.5: find one kept and one dropped id, then check inheritance.
        obs.configure_sampling(probability=0.5, slow_ms=1e9)
        kept_id = next(
            tid for tid in (obs.new_trace_id() for _ in range(1000))
            if obs.trace_sampled(tid)
        )
        dropped_id = next(
            tid for tid in (obs.new_trace_id() for _ in range(1000))
            if not obs.trace_sampled(tid)
        )
        with obs.span("request", trace_id=kept_id):
            with obs.span("inner"):
                pass
        with obs.span("request", trace_id=dropped_id):
            with obs.span("inner"):
                pass
        assert len(sink) == 2
        assert all(record["trace"] == kept_id for record in sink)

    def test_slow_span_kept_and_tagged_despite_sampling(self, sink, full_sampling):
        obs.configure_sampling(probability=0.0, slow_ms=0.0)  # everything is "slow"
        with obs.span("slow-root"):
            pass
        assert len(sink) == 1
        assert sink[0]["sampled"] is False

    def test_emit_span_respects_sampling(self, sink, full_sampling):
        obs.configure_sampling(probability=0.0, slow_ms=1e9)
        context = obs.emit_span("dropped", 0.001)
        assert context is not None  # callers still get a context to chain
        assert sink == []
        obs.configure_sampling(slow_ms=0.0)
        obs.emit_span("kept-slow", 0.001)
        assert [r["name"] for r in sink] == ["kept-slow"]
        assert sink[0]["sampled"] is False

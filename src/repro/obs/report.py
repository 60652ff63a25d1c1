"""Offline trace analysis: parse span JSONL files and render reports.

This is the read side of :class:`repro.obs.trace.JsonlTraceSink`, used
by ``repro stats <trace.jsonl>``.  Unlike the online histogram path it
has the raw samples, so percentiles here are exact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

__all__ = [
    "TraceReadError",
    "read_trace",
    "summarize_spans",
    "render_trace_report",
    "render_trace_tree",
]


class TraceReadError(ValueError):
    """The trace file is corrupt; names the offending line."""


def read_trace(path) -> list[dict]:
    """Parse a span JSONL file.

    Same contract as the runner's result store: a truncated *final* line
    (the writer was killed mid-append) is tolerated and dropped, but a
    malformed line anywhere earlier is corruption and raises
    :class:`TraceReadError` naming the line — silently skipping it would
    quietly bias every percentile in the report.
    """
    records: list[dict] = []
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    last_content = max(
        (i for i, line in enumerate(lines) if line.strip()), default=-1
    )
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == last_content:
                continue  # torn final append, not corruption
            raise TraceReadError(
                f"{path}: line {index + 1} is not valid JSON: {exc}"
            ) from exc
        if not (
            isinstance(record, dict) and "name" in record and "duration_ms" in record
        ):
            raise TraceReadError(
                f"{path}: line {index + 1} is not a span record"
            )
        records.append(record)
    return records


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def summarize_spans(records: list[dict]) -> list[dict]:
    """Per-span-name aggregates, sorted by total time descending."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for record in records:
        by_name[record["name"]].append(float(record["duration_ms"]))
    rows = []
    for name, durations in by_name.items():
        durations.sort()
        total = sum(durations)
        rows.append(
            {
                "name": name,
                "count": len(durations),
                "total_ms": total,
                "mean_ms": total / len(durations),
                "p50_ms": _percentile(durations, 0.50),
                "p95_ms": _percentile(durations, 0.95),
                "max_ms": durations[-1],
            }
        )
    rows.sort(key=lambda row: row["total_ms"], reverse=True)
    return rows


def _render_tree(record, children, lines, depth):
    indent = "  " * depth
    attrs = record.get("attrs") or {}
    attr_text = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]" if attrs else ""
    )
    lines.append(
        f"{indent}{record['name']}  {float(record['duration_ms']):.3f} ms"
        f"{attr_text}"
    )
    for child in sorted(children.get(record.get("span"), []), key=lambda r: r.get("ts", 0.0)):
        _render_tree(child, children, lines, depth + 1)


def _span_forest(records: list[dict]):
    """``(roots, children)`` — spans whose parent is absent become roots."""
    children: dict[str, list[dict]] = defaultdict(list)
    roots: list[dict] = []
    span_ids = {record.get("span") for record in records}
    for record in records:
        parent = record.get("parent")
        if parent and parent in span_ids:
            children[parent].append(record)
        else:
            roots.append(record)
    return roots, children


def render_trace_tree(records: list[dict], trace_id: str) -> str:
    """Render exactly one trace's span tree (``repro stats --trace-id``).

    ``trace_id`` may be a unique prefix, the same convenience the result
    store gives record hashes; ambiguous or unknown ids raise
    :class:`ValueError` listing what *is* there.
    """
    matching = [r for r in records if r.get("trace") == trace_id]
    if not matching:
        candidates = sorted({
            str(r.get("trace"))
            for r in records
            if str(r.get("trace", "")).startswith(trace_id)
        })
        if len(candidates) > 1:
            raise ValueError(
                f"trace id prefix {trace_id!r} is ambiguous: "
                f"{', '.join(candidates)}"
            )
        if not candidates:
            known = sorted({str(r.get("trace")) for r in records})
            preview = ", ".join(known[:5]) + ("…" if len(known) > 5 else "")
            raise ValueError(
                f"no trace {trace_id!r} in this file "
                f"({len(known)} traces: {preview})"
            )
        trace_id = candidates[0]
        matching = [r for r in records if r.get("trace") == trace_id]
    roots, children = _span_forest(matching)
    roots.sort(key=lambda r: r.get("ts", 0.0))
    total = sum(float(r["duration_ms"]) for r in roots)
    lines = [f"trace {trace_id}: {len(matching)} spans, {total:.3f} ms in roots"]
    for root in roots:
        _render_tree(root, children, lines, 1)
    return "\n".join(lines) + "\n"


def render_trace_report(records: list[dict], slowest: int = 1) -> str:
    """Human-readable report: per-name table plus the slowest trace tree(s)."""
    if not records:
        return "no spans found\n"
    traces = {record.get("trace") for record in records}
    lines = [f"{len(records)} spans across {len(traces)} traces", ""]

    rows = summarize_spans(records)
    header = f"{'span':<32} {'count':>7} {'total_ms':>10} {'mean_ms':>9} {'p50_ms':>9} {'p95_ms':>9} {'max_ms':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row['name']:<32} {row['count']:>7} {row['total_ms']:>10.2f}"
            f" {row['mean_ms']:>9.3f} {row['p50_ms']:>9.3f} {row['p95_ms']:>9.3f}"
            f" {row['max_ms']:>9.3f}"
        )

    if slowest > 0:
        roots, children = _span_forest(records)
        roots.sort(key=lambda r: float(r["duration_ms"]), reverse=True)
        for root in roots[:slowest]:
            lines.append("")
            lines.append(f"slowest trace {root.get('trace', '?')}:")
            _render_tree(root, children, lines, 1)
    return "\n".join(lines) + "\n"

"""Guard against metric families nobody reads.

Every ``repro_*`` family the library registers is a hook on a solve,
step or request path, so each one must have a reader: a test, the CI
smokes, an example SLO spec or ``repro top``.  The dict below names that
reader; a family added under ``src/repro`` without an entry here fails,
and so does an entry whose family is gone.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).resolve().parent

# The ContextVar carrying the active span is named like a family but is not one.
NOT_FAMILIES = {"repro_obs_span"}

SERVE_SMOKE = "CI serve smoke required set"
FAULT = "fault counter (safety code, kept unread)"

FAMILIES = {
    "repro_http_requests_total":
        f"{SERVE_SMOKE}; examples/specs/serve_slo.json; repro top",
    "repro_http_request_seconds":
        f"{SERVE_SMOKE}; examples/specs/serve_slo.json; repro top",
    "repro_serve_queries_total":
        f"{SERVE_SMOKE}; repro top; test_obs_integration.py::"
        "TestMetricsEndpoint::test_serves_prometheus_with_core_series",
    "repro_serve_deltas_total": SERVE_SMOKE,
    "repro_engine_solves_total":
        f"{SERVE_SMOKE}; test_obs_integration.py::TestDisabledSwitch",
    "repro_engine_solve_seconds": SERVE_SMOKE,
    "repro_stream_solves_total": SERVE_SMOKE,
    "repro_batcher_queue_depth":
        f"{SERVE_SMOKE}; examples/specs/serve_slo.json; repro top",
    "repro_quality_prequential_total": f"{SERVE_SMOKE}; repro top",
    "repro_quality_prequential_accuracy":
        f"{SERVE_SMOKE}; examples/specs/quality_slo.json",
    "repro_quality_flips_total": f"{SERVE_SMOKE}; repro top",
    "repro_quality_drift":
        f"{SERVE_SMOKE}; examples/specs/quality_slo.json; repro top",
    "repro_batcher_flushes_total":
        "test_obs_integration.py::TestMetricsEndpoint::"
        "test_serves_prometheus_with_core_series",
    "repro_queue_seen_ids_evicted_total":
        "test_serve_queue.py::TestSeenIdLru::test_cap_evicts_oldest_ids_and_counts",
    "repro_router_proxied_total":
        "test_serve_router.py::TestFleetReads::"
        "test_metrics_federates_workers_and_router",
    "repro_runner_runs_total":
        "test_obs_integration.py::TestMultiprocessMerge",
    "repro_runner_run_seconds":
        "test_obs_integration.py::TestMultiprocessMerge",
    "repro_engine_nonconverged_total": FAULT,
    "repro_serve_replay_errors_total": FAULT,
    "repro_router_replace_failures_total": FAULT,
}

_LITERAL = re.compile(r"""["'](repro_[a-z0-9_]+)["']""")


def registered_families() -> set[str]:
    """Every quoted ``repro_*`` name in the package source."""
    found: set[str] = set()
    for path in SOURCE.rglob("*.py"):
        found.update(_LITERAL.findall(path.read_text(encoding="utf-8")))
    return found - NOT_FAMILIES


def test_every_family_has_a_named_reader():
    assert registered_families() == set(FAMILIES)

"""Incremental propagation: warm fixed-point restarts with a fallback policy.

:class:`IncrementalPropagator` wraps a
:class:`~repro.propagation.linbp.LinBPPropagator` (echo cancellation
optional) and decides, per delta, whether to resume the fixed point from
the previous beliefs (residuals then live only at the delta-touched
frontier and decay from there) or to re-solve from scratch.  The fallback
triggers are:

* no previous result (first solve, or the caller dropped its warm state),
* the accumulated delta since the last full solve exceeds
  ``full_solve_edge_fraction`` of the graph's edges — a huge delta leaves
  nothing for the warm start to save, so re-anchoring is both faster and
  keeps the spectral estimate trustworthy,
* the warm spectral-radius estimate drifted more than
  ``radius_drift_tolerance`` (relative) from the radius of the last full
  solve — LinBP's convergence scaling is a function of ``rho(W)``, and a
  drifted radius means the cached scaling regime no longer describes the
  graph.

On top of warm-vs-full sits an opt-in third mode, **localized**: when the
delta is tiny (at most ``localized_edge_fraction`` of the edges), the warm
resume runs through the residual-push solver (:mod:`repro.propagation.push`)
instead of dense sweeps, iterating only the delta-affected frontier.
Localized solves hit the same unique fixed point to the same tolerance —
the mode is purely a work-complexity choice, which is why it slots in
*after* every correctness-motivated fallback above.  The echo term is
outside the push solver's linear form, so echo-cancelling LinBP never
localizes.

Because LinBP contracts to a *unique* fixed point, a warm solve converges
to the same beliefs as a cold one (to the configured tolerance); the policy
above is purely about speed and about keeping the warm spectral state
honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.propagation.engine import PropagationResult
from repro.propagation.linbp import LinBPPropagator
from repro.propagation.push import LocalizedHint

__all__ = ["IncrementalDecision", "IncrementalPropagator", "delta_edge_fraction"]

FULL_SOLVE_EDGE_FRACTION = 0.05
RADIUS_DRIFT_TOLERANCE = 0.02
LOCALIZED_EDGE_FRACTION = 0.01


def delta_edge_fraction(edges_changed: int, n_edges: int) -> float:
    """Changed-edge fraction with the empty-graph cases made explicit.

    Dividing by the *current* edge count breaks down when the graph is (or
    has just become) edgeless: ``0 / 0`` would crash or, as NaN, slip past
    every ``>`` comparison in the fallback policy and incorrectly warm-start.
    The convention here: no edges and no changes is ``0.0`` (nothing moved,
    a warm resume is trivially safe), while changes against an edgeless
    graph are ``inf`` (there is no base to amortize against — fall back to
    a full solve).
    """
    if n_edges <= 0:
        return 0.0 if edges_changed <= 0 else float("inf")
    return edges_changed / n_edges


@dataclass
class IncrementalDecision:
    """Why one propagation ran warm, localized, or cold.

    ``mode`` is ``"incremental"``, ``"localized"`` or ``"full"``;
    ``reason`` is a short machine-readable tag (``"warm"``,
    ``"localized"``, ``"first"``, ``"delta"``, ``"drift"``, ``"forced"``).
    """

    mode: str
    reason: str
    delta_fraction: float = 0.0
    radius_drift: float | None = None


class IncrementalPropagator:
    """Delta-aware wrapper around one :class:`LinBPPropagator` instance.

    Parameters
    ----------
    propagator:
        The wrapped LinBP (a ready instance; its configuration — cap,
        tolerance, dtype, echo — applies to warm and full solves alike).
    full_solve_edge_fraction:
        Re-solve from scratch once the edges changed since the last full
        solve exceed this fraction of the current edge count.
    radius_drift_tolerance:
        Re-solve from scratch once the warm spectral-radius estimate drifts
        this far (relative) from the last full solve's radius.  Only
        consulted when the caller supplies a drift value (i.e. LinBP's
        epsilon is derived from the spectral radius, not pinned).
    localized:
        Opt in to the residual-push localized mode.  Off by default: the
        mode is numerically equivalent but changes the work profile, so
        callers enable it explicitly (``repro stream --localized``, the
        serve ``localized`` load flag, or benchmark configs).  Ignored
        with echo cancellation, whose steps stay on the dense warm path.
    localized_edge_fraction:
        Ceiling on the delta fraction eligible for a localized solve; above
        it the frontier is unlikely to stay small, so a plain warm resume's
        dense sweeps win.
    """

    def __init__(
        self,
        propagator: LinBPPropagator,
        full_solve_edge_fraction: float = FULL_SOLVE_EDGE_FRACTION,
        radius_drift_tolerance: float = RADIUS_DRIFT_TOLERANCE,
        localized: bool = False,
        localized_edge_fraction: float = LOCALIZED_EDGE_FRACTION,
    ) -> None:
        if not isinstance(propagator, LinBPPropagator):
            raise TypeError(
                f"propagator must be a LinBPPropagator instance, got "
                f"{type(propagator)!r}"
            )
        if full_solve_edge_fraction <= 0:
            raise ValueError("full_solve_edge_fraction must be positive")
        if radius_drift_tolerance <= 0:
            raise ValueError("radius_drift_tolerance must be positive")
        if localized_edge_fraction <= 0:
            raise ValueError("localized_edge_fraction must be positive")
        self.propagator = propagator
        self.full_solve_edge_fraction = float(full_solve_edge_fraction)
        self.radius_drift_tolerance = float(radius_drift_tolerance)
        self.localized = bool(localized) and not propagator.echo_cancellation
        self.localized_edge_fraction = float(localized_edge_fraction)

    def decide(
        self,
        previous: PropagationResult | None,
        delta_fraction: float = 0.0,
        radius_drift: float | None = None,
        force_full: bool = False,
    ) -> IncrementalDecision:
        """Resolve the warm-vs-full policy without running anything."""
        if force_full:
            reason = "forced"
        elif previous is None:
            reason = "first"
        elif not math.isfinite(delta_fraction) or delta_fraction > self.full_solve_edge_fraction:
            # Non-finite covers the edgeless-graph conventions of
            # delta_edge_fraction *and* a NaN from any caller's own 0/0 —
            # NaN compares False against every threshold, so without this
            # guard it would silently select a warm start.
            reason = "delta"
        elif radius_drift is not None and radius_drift > self.radius_drift_tolerance:
            reason = "drift"
        elif self.localized and delta_fraction <= self.localized_edge_fraction:
            reason = "localized"
        else:
            reason = "warm"
        mode = {"warm": "incremental", "localized": "localized"}.get(reason, "full")
        return IncrementalDecision(
            mode=mode,
            reason=reason,
            delta_fraction=float(delta_fraction),
            radius_drift=radius_drift,
        )

    def propagate(
        self,
        graph,
        seed_labels,
        compatibility,
        *,
        previous: PropagationResult | None = None,
        delta_fraction: float = 0.0,
        radius_drift: float | None = None,
        force_full: bool = False,
        n_classes: int | None = None,
        localized_hint: LocalizedHint | None = None,
    ) -> tuple[PropagationResult, IncrementalDecision]:
        """Run warm, localized, or cold according to the policy.

        ``graph`` may be a :class:`~repro.graph.graph.Graph`, a raw
        adjacency or a primed
        :class:`~repro.graph.operators.GraphOperators` instance — exactly
        what the wrapped propagator accepts.  ``localized_hint`` narrows a
        localized solve's residual seeding to the delta-affected rows; it
        is only consulted when the decision lands on ``"localized"``.
        """
        decision = self.decide(previous, delta_fraction, radius_drift, force_full)
        warm_start = previous if decision.mode in ("incremental", "localized") else None
        localized = None
        if decision.mode == "localized":
            localized = localized_hint if localized_hint is not None else True
        result = self.propagator.propagate(
            graph,
            seed_labels,
            compatibility=compatibility,
            n_classes=n_classes,
            warm_start=warm_start,
            localized=localized,
        )
        return result, decision

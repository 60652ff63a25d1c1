"""Harmonic-function label propagation (Zhu, Ghahramani & Lafferty, 2003).

The classic homophily SSL method the paper uses as its "standard random
walk" comparison point (Fig. 6i): unlabeled beliefs iterate towards the
degree-weighted average of their neighbors while seed nodes stay clamped to
their one-hot labels.

:class:`HarmonicPropagator` runs the clamped averaging on the engine's
shared fixed-point loop, applying the graph's cached ``D^-1 W`` operator;
:func:`harmonic_functions` is the backwards-compatible functional wrapper.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import one_hot_labels
from repro.graph.operators import GraphOperators
from repro.propagation.engine import (
    Propagator,
    fixed_point_iterate,
    register_propagator,
)

__all__ = ["HarmonicPropagator", "harmonic_functions"]


@register_propagator()
class HarmonicPropagator(Propagator):
    """Clamped neighbor-averaging: ``F <- D^-1 W F`` with seeds held fixed.

    Assumes homophily; requires ``seed_labels`` (the clamping needs to know
    which nodes are seeds), so it cannot run from raw prior beliefs.
    """

    name = "harmonic"
    needs_compatibility = False

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-8,
        dtype=np.float64,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance, dtype=dtype)

    def _run(
        self,
        operators: GraphOperators,
        prior_beliefs,
        seed_labels,
        n_classes: int,
        compatibility,
    ) -> tuple[np.ndarray, int, bool, list[float], dict]:
        if seed_labels is None:
            raise ValueError("harmonic functions need seed_labels to clamp seeds")
        clamped = self._dense(one_hot_labels(seed_labels, n_classes), dtype=self.dtype)
        seeded = seed_labels >= 0
        averaging = operators.row_normalized

        def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
            averaged = np.asarray(averaging @ current)
            averaged[seeded] = clamped[seeded]
            return averaged

        beliefs, n_iterations, converged, residuals = fixed_point_iterate(
            step, clamped, self.max_iterations, self.tolerance
        )
        return beliefs, n_iterations, converged, residuals, {}


def harmonic_functions(
    adjacency,
    seed_labels: np.ndarray,
    n_classes: int,
    n_iterations: int = 100,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Classify unlabeled nodes with the harmonic-functions method.

    ``seed_labels`` uses ``-1`` for unlabeled nodes.  Returns a full label
    vector; seed nodes keep their given labels.  Backwards-compatible
    wrapper around :class:`HarmonicPropagator`.
    """
    propagator = HarmonicPropagator(max_iterations=n_iterations, tolerance=tolerance)
    result = propagator.propagate(adjacency, seed_labels, n_classes=n_classes)
    return result.labels

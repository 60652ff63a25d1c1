"""Loopy Belief Propagation (BP) on a pairwise Markov random field.

This is the classical algorithm LinBP linearizes (Section 2.2): each directed
edge carries a ``k``-dimensional message, an outgoing message multiplies all
incoming messages except the one from the recipient ("echo cancellation") and
is then modulated by the edge potential ``H``.  BP is included as the
reference substrate the paper builds on — it expresses arbitrary
compatibilities but has no convergence guarantee and is far slower than the
linearized formulation, which the benchmark suite demonstrates.

The implementation is vectorized over all ``2m`` directed edges (messages are
stored in one ``2m x k`` array) so moderate graphs remain practical.  The
message fixed point runs on the engine's shared loop;
:func:`beliefpropagation` is the backwards-compatible functional wrapper
around :class:`LoopyBPPropagator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.operators import GraphOperators
from repro.propagation.engine import (
    Propagator,
    fixed_point_iterate,
    register_propagator,
)

__all__ = ["BPResult", "LoopyBPPropagator", "beliefpropagation"]


@dataclass
class BPResult:
    """Outcome of a loopy BP run (legacy result type).

    Attributes
    ----------
    beliefs:
        Final normalized ``n x k`` node beliefs.
    labels:
        Arg-max labels per node.
    n_iterations:
        Sweeps performed before convergence or hitting the limit.
    converged:
        True when the largest message change dropped below the tolerance.
    """

    beliefs: np.ndarray
    labels: np.ndarray
    n_iterations: int
    converged: bool


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return matrix / sums


@register_propagator()
class LoopyBPPropagator(Propagator):
    """Sum-product loopy BP with pairwise potential ``H``.

    Parameters
    ----------
    max_iterations:
        Maximum number of synchronous message sweeps.
    tolerance:
        Early-exit threshold on the max-norm message change.
    damping:
        Fraction of the old message kept at each update (0 disables
        damping); mild damping helps on graphs where plain BP oscillates.
    clip_potential:
        BP potentials must be non-negative, but estimated compatibility
        matrices (MCE at sparse label fractions, DCE residual artifacts)
        routinely carry small negative entries.  When True (the default for
        the engine path) negative entries are clipped to zero so estimated
        matrices remain usable; when False such a matrix raises instead
        (the strict contract of the legacy :func:`beliefpropagation` API).

    Edge weights are ignored beyond presence; BP on weighted graphs would
    exponentiate the potential, which the paper does not use.  Zero rows of
    the prior-belief matrix get a uniform prior.
    """

    name = "bp"
    needs_compatibility = True

    def __init__(
        self,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        dtype=np.float64,
        damping: float = 0.0,
        clip_potential: bool = True,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance, dtype=dtype)
        if not 0.0 <= damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {damping}")
        self.damping = float(damping)
        self.clip_potential = bool(clip_potential)

    def _run(
        self,
        operators: GraphOperators,
        prior_beliefs,
        seed_labels,
        n_classes: int,
        compatibility: np.ndarray,
    ) -> tuple[np.ndarray, int, bool, list[float], dict]:
        if np.any(compatibility < 0):
            if not self.clip_potential:
                raise ValueError("BP potentials must be non-negative")
            compatibility = np.clip(compatibility, 0.0, None)
        adjacency = operators.adjacency
        n_nodes = adjacency.shape[0]

        priors = self._dense(prior_beliefs).copy()
        unlabeled = priors.sum(axis=1) == 0
        priors[unlabeled] = 1.0 / n_classes
        priors = _normalize_rows(priors)

        coo = adjacency.tocoo()
        sources = coo.row
        targets = coo.col
        n_messages = sources.shape[0]
        if n_messages == 0:
            return priors, 0, True, [], {}

        # reverse_index[e] is the index of the opposite directed edge (v -> u).
        edge_lookup = {
            (int(u), int(v)): index for index, (u, v) in enumerate(zip(sources, targets))
        }
        reverse_index = np.array(
            [edge_lookup[(int(v), int(u))] for u, v in zip(sources, targets)],
            dtype=np.int64,
        )

        # Aggregation matrix: node i <- sum over incoming directed edges (j -> i).
        incoming = sp.csr_matrix(
            (np.ones(n_messages), (targets, np.arange(n_messages))),
            shape=(n_nodes, n_messages),
        )
        log_priors = np.log(np.clip(priors, 1e-300, None))
        damping = self.damping

        def step(messages: np.ndarray, out: np.ndarray) -> np.ndarray:
            # Node-level product of incoming messages, in log space for
            # stability.
            log_messages = np.log(np.clip(messages, 1e-300, None))
            node_log_product = np.asarray(incoming @ log_messages)
            node_log_product += log_priors
            # Outgoing message on (u -> v): exclude the message v previously
            # sent to u.
            exclude = log_messages[reverse_index]
            outgoing_log = node_log_product[sources] - exclude
            outgoing_log -= outgoing_log.max(axis=1, keepdims=True)
            outgoing = np.exp(outgoing_log) @ compatibility
            outgoing = _normalize_rows(outgoing)
            if damping > 0:
                outgoing = damping * messages + (1.0 - damping) * outgoing
            return outgoing

        initial = np.full((n_messages, n_classes), 1.0 / n_classes)
        messages, n_iterations, converged, residuals = fixed_point_iterate(
            step, initial, self.max_iterations, self.tolerance
        )

        log_messages = np.log(np.clip(messages, 1e-300, None))
        node_log_product = np.asarray(incoming @ log_messages) + log_priors
        node_log_product -= node_log_product.max(axis=1, keepdims=True)
        beliefs = _normalize_rows(np.exp(node_log_product))
        return beliefs, n_iterations, converged, residuals, {}


def beliefpropagation(
    adjacency,
    prior_beliefs,
    compatibility: np.ndarray,
    n_iterations: int = 50,
    damping: float = 0.0,
    tolerance: float = 1e-6,
) -> BPResult:
    """Run sum-product loopy BP with pairwise potential ``H``.

    Backwards-compatible functional wrapper around
    :class:`LoopyBPPropagator`; see the class for parameter semantics.
    Keeps the legacy strict contract: a potential with negative entries
    raises instead of being clipped.
    """
    propagator = LoopyBPPropagator(
        max_iterations=n_iterations,
        tolerance=tolerance,
        damping=damping,
        clip_potential=False,
    )
    result = propagator.propagate(
        adjacency, compatibility=compatibility, prior_beliefs=prior_beliefs
    )
    return BPResult(
        beliefs=result.beliefs,
        labels=result.labels,
        n_iterations=result.n_iterations,
        converged=result.converged,
    )

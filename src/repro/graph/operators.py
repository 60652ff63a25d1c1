"""Cached graph-operator layer: memoized derived operators of one adjacency.

Every propagation algorithm derives the same handful of operators from the
adjacency matrix — degree vectors, row/column/symmetric normalizations, the
spectral radius that LinBP's convergence scaling needs — and before this
layer existed each algorithm recomputed them on every call.  A
:class:`GraphOperators` instance owns one (immutable) adjacency matrix and
memoizes each derived operator on first use, so a sweep that runs hundreds
of experiment points on the same graph pays for the spectral radius and the
normalizations exactly once.

:class:`repro.graph.graph.Graph` exposes a lazily constructed instance as
``graph.operators``; algorithms that receive a raw adjacency matrix build a
throwaway instance via :func:`operators_for` and simply lose the caching.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.matrix import (
    column_normalized_adjacency,
    degree_vector,
    row_normalized_adjacency,
    safe_reciprocal,
    symmetric_normalized_adjacency,
    to_csr,
)

__all__ = ["GraphOperators", "operators_for"]


class GraphOperators:
    """Memoized derived operators of a fixed adjacency matrix.

    The adjacency is treated as immutable: callers that mutate a graph's
    adjacency in place must drop the operator cache (``Graph.operators``
    rebuilds it automatically whenever the adjacency object is replaced).

    Attributes are computed on first access and cached for the lifetime of
    the instance:

    * :attr:`degrees` / :attr:`inverse_degrees` — weighted degree vectors,
    * :attr:`row_normalized` — ``D^-1 W`` (harmonic functions),
    * :attr:`column_normalized` — ``W D^-1`` (random walks),
    * :attr:`symmetric_normalized` — ``D^-1/2 W D^-1/2`` (LGC),
    * :meth:`spectral_radius` — ``rho(W)``, the cold Lanczos quantity
      behind LinBP's convergence scaling,
    * :meth:`linbp_scaling` — the full ``epsilon = s / (rho(W) rho(H~))``,
      additionally memoized per (compatibility bytes, safety).
    """

    def __init__(self, adjacency) -> None:
        self.adjacency = to_csr(adjacency)
        self._cache: dict = {}
        self._scaling_cache: dict = {}

    @property
    def n_nodes(self) -> int:
        """Number of nodes of the underlying graph."""
        return self.adjacency.shape[0]

    def _cached(self, key: str, factory):
        if key not in self._cache:
            self._cache[key] = factory()
        return self._cache[key]

    # ------------------------------------------------------------- operators
    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each node."""
        return self._cached("degrees", lambda: degree_vector(self.adjacency))

    @property
    def inverse_degrees(self) -> np.ndarray:
        """Element-wise ``1/degree`` with zeros for isolated nodes."""
        return self._cached("inverse_degrees", lambda: safe_reciprocal(self.degrees))

    @property
    def row_normalized(self) -> sp.csr_matrix:
        """Random-walk operator ``D^-1 W``."""
        return self._cached(
            "row_normalized", lambda: row_normalized_adjacency(self.adjacency)
        )

    @property
    def column_normalized(self) -> sp.csr_matrix:
        """Column-stochastic operator ``W D^-1``."""
        return self._cached(
            "column_normalized", lambda: column_normalized_adjacency(self.adjacency)
        )

    @property
    def symmetric_normalized(self) -> sp.csr_matrix:
        """Symmetric operator ``D^-1/2 W D^-1/2``."""
        return self._cached(
            "symmetric_normalized",
            lambda: symmetric_normalized_adjacency(self.adjacency),
        )

    # --------------------------------------------------------------- spectra
    def spectral_radius(self, seed=0) -> float:
        """Memoized ``rho(W)`` — computed once per graph, not per call."""
        key = ("spectral_radius", seed)

        def factory():
            from repro.propagation.convergence import spectral_radius

            return spectral_radius(self.adjacency, seed=seed)

        return self._cached(key, factory)

    def prime_spectral_radius(self, value: float, seed=0) -> None:
        """Seed the spectral-radius cache with an externally computed value.

        The streaming layer maintains a warm Lanczos estimate of ``rho(W)``
        across graph deltas (a handful of matrix-vector products instead of
        a cold Lanczos run) and primes the evolved operator cache with it,
        so that :meth:`spectral_radius` — and therefore
        :meth:`linbp_scaling` — never trigger the expensive batch path.
        """
        self._cache[("spectral_radius", seed)] = float(value)

    def evolve(self, new_adjacency, delta_degrees: np.ndarray | None = None) -> "GraphOperators":
        """Derive the operator cache for a delta-mutated adjacency.

        Returns a fresh :class:`GraphOperators` for ``new_adjacency`` with
        every derived operator invalidated *except* what a delta can refresh
        cheaply: when ``delta_degrees`` (the per-node degree change of the
        applied delta, zero-padded for added nodes) is provided and this
        instance has its degree vector cached, the new instance's degrees
        are primed as ``old + delta`` in O(n) instead of an O(nnz) recount.
        The caller is expected to additionally prime the spectral radius via
        :meth:`prime_spectral_radius` when it maintains a warm estimate.
        """
        evolved = GraphOperators(new_adjacency)
        if delta_degrees is not None and "degrees" in self._cache:
            delta_degrees = np.asarray(delta_degrees, dtype=np.float64)
            if delta_degrees.shape[0] < evolved.n_nodes:
                raise ValueError(
                    f"delta_degrees has length {delta_degrees.shape[0]} for a "
                    f"graph grown to {evolved.n_nodes} nodes"
                )
            degrees = np.zeros(evolved.n_nodes, dtype=np.float64)
            old = self._cache["degrees"]
            degrees[: old.shape[0]] = old
            degrees += delta_degrees
            evolved._cache["degrees"] = degrees
        return evolved

    def linbp_scaling(
        self, centered_compatibility: np.ndarray, safety: float = 0.5, seed=0
    ) -> float:
        """Memoized LinBP convergence scaling ``epsilon`` (Eq. 2).

        ``rho(W)`` comes from the per-graph cache and is snapped *up* onto
        the binary scaling ladder (:func:`~repro.propagation.convergence.
        quantize_radius`) before use: the ceiling preserves the convergence
        guarantee, and the coarse grid makes the scaling bit-identical
        between a streaming session's warm radius estimate and a cold
        re-solve, so sub-rung spectral drift no longer moves the fixed
        point on every row.  The cheap ``k x k`` ``rho(H~)`` is memoized per
        (compatibility bytes, safety) so repeated experiment points with
        the same estimate skip even the dense solve.
        """
        from repro.propagation.convergence import quantize_radius, spectral_radius

        compatibility = np.ascontiguousarray(centered_compatibility, dtype=np.float64)
        key = (compatibility.tobytes(), compatibility.shape, float(safety), seed)
        if key not in self._scaling_cache:
            radius_w = self.spectral_radius(seed=seed)
            radius_h = spectral_radius(compatibility, seed=seed)
            if radius_w == 0 or radius_h == 0:
                scaling = 1.0
            else:
                scaling = float(safety / (quantize_radius(radius_w) * radius_h))
            self._scaling_cache[key] = scaling
        return self._scaling_cache[key]


def operators_for(graph_or_adjacency) -> GraphOperators:
    """Resolve anything graph-like to a :class:`GraphOperators` instance.

    A :class:`~repro.graph.graph.Graph` contributes its cached instance; a
    raw adjacency matrix (dense or sparse) gets a fresh, uncached one.
    """
    if isinstance(graph_or_adjacency, GraphOperators):
        return graph_or_adjacency
    cached = getattr(graph_or_adjacency, "operators", None)
    if isinstance(cached, GraphOperators):
        return cached
    return GraphOperators(graph_or_adjacency)

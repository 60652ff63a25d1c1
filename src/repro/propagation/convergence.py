"""Spectral radius estimation and the LinBP convergence scaling (Eq. 2).

LinBP converges iff ``rho(H~) < 1 / rho(W)``; the paper therefore rescales
the centered compatibility matrix by ``epsilon = s / (rho(W) * rho(H~))``
with a safety factor ``s`` (0.5 in the experiments).  The paper uses PyAMG's
approximate spectral radius; we compute ``rho(W)`` with one symmetric
Lanczos recurrence, which only needs matrix-vector products: the batch
path keeps two vectors of it, a streaming session's warm restarts keep the
Krylov basis to assemble a Ritz vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.matrix import to_csr
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "spectral_radius",
    "linbp_scaling",
    "SpectralState",
    "lanczos_spectral_state",
    "quantize_radius",
    "radius_ladder_gap",
    "RADIUS_LADDER_BITS",
    "COLD_LANCZOS_STEPS",
    "COLD_LANCZOS_TOLERANCE",
]


# The spectral radius feeding the LinBP scaling moves onto a coarse binary
# ladder (relative grid ``2**-RADIUS_LADDER_BITS``, ~0.8%) before the
# scaling is formed.  Rationale: epsilon is a convergence *heuristic* — any
# value under the safety bound is valid — but because it multiplies the
# coupling on every row, a streaming session that re-estimates rho(W) after
# each delta would move the fixed point globally by the estimate's drift,
# forcing warm solvers to re-touch every node for a parameter change of
# ~1e-4.  Snapping rho(W) to the ladder makes the scaling *bit-identical*
# between a warm session and a cold re-solve whenever their radius
# estimates agree to well under one rung, so small deltas leave the fixed
# point unchanged outside the delta's own neighborhood.  Ceiling (never
# flooring) keeps the quantized radius an upper bound, preserving the
# convergence guarantee; every operation is exact in binary floating point,
# so the rung choice is deterministic across machines and backends.
RADIUS_LADDER_BITS = 7


def quantize_radius(radius: float) -> float:
    """Ceil ``radius`` onto the binary scaling ladder (see above)."""
    radius = float(radius)
    if radius <= 0.0 or not math.isfinite(radius):
        return radius
    exponent = math.frexp(radius)[1] - 1  # radius = m * 2**exponent, m in [1,2)
    rung = math.ldexp(1.0, exponent - RADIUS_LADDER_BITS)
    return math.ceil(radius / rung) * rung


def radius_ladder_gap(radius: float) -> float:
    """Relative distance from ``radius`` to its nearest ladder rung.

    A warm radius estimate whose error could straddle a rung boundary must
    be refined before it feeds the scaling — otherwise the warm session and
    a cold solve could snap to different rungs and disagree by a whole grid
    step.  Callers compare this gap against their estimate's error bound.
    """
    radius = float(radius)
    if radius <= 0.0 or not math.isfinite(radius):
        return float("inf")
    exponent = math.frexp(radius)[1] - 1
    rung = math.ldexp(1.0, exponent - RADIUS_LADDER_BITS)
    steps = radius / rung
    fraction = steps - math.floor(steps)
    return min(fraction, 1.0 - fraction) * rung / radius


# The one cold Lanczos setting: the batch radius and a streaming session's
# anchor solve run it from the same seeded start vector, so the anchor
# reproduces the batch value bit for bit, ~1e-11 relative to rho(W), far
# below the scaling ladder's rung and the belief tolerance.
COLD_LANCZOS_STEPS = 200
COLD_LANCZOS_TOLERANCE = 1e-11


def spectral_radius(matrix, seed=0) -> float:
    """Spectral radius of a (sparse or dense) square matrix.

    A sparse matrix must be symmetric: a :class:`~repro.graph.graph.Graph`
    validates its adjacency, :func:`repro.stream.delta.apply_delta` keeps it
    so, and it is not re-checked here.  It runs the cold Lanczos recurrence
    from the seeded start vector on two vectors.  Should the step cap come
    before the tolerance, the Ritz value may still sit below ``rho``, so the
    largest absolute row sum, an upper bound by Gershgorin's theorem, is
    returned instead.  A dense (``k x k``) matrix takes exact eigenvalues.
    """
    if sp.issparse(matrix):
        matrix = to_csr(matrix)
        n = matrix.shape[0]
        if n == 0:
            return 0.0
        start = ensure_rng(seed).standard_normal(n)
        start /= np.linalg.norm(start)
        radius, _, _, _, converged = _lanczos(
            matrix, start, COLD_LANCZOS_STEPS, COLD_LANCZOS_TOLERANCE,
            keep_basis=False,
        )
        if converged:
            return radius
        return float(abs(matrix).sum(axis=1).max())
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(dense))))


@dataclass
class SpectralState:
    """Dominant eigenpair estimate of a symmetric matrix.

    Attributes
    ----------
    radius:
        Estimated spectral radius ``|lambda_max|``.
    vector:
        Unit-norm Ritz vector of the dominant eigenvalue.  Feeding it back
        as ``v0`` after a small perturbation of the matrix makes the next
        estimate converge in a handful of matrix-vector products — the warm
        restart the streaming layer relies on.
    n_steps:
        Lanczos steps (= matrix-vector products) actually performed.
    residual_bound:
        Estimated eigenvalue error of ``radius``: the certified Ritz
        residual ``beta_k |y_k|`` sharpened by Temple's inequality
        (``residual^2 / ritz_gap``) when a gap estimate is available.  Lets
        callers trust a coarse estimate — or detect that it must be
        refined before a discrete decision (e.g. picking a scaling-ladder
        rung) depends on it.  Zero for exact states (primed or
        invariant-subspace exits).
    """

    radius: float
    vector: np.ndarray
    n_steps: int
    residual_bound: float = 0.0


def lanczos_spectral_state(
    matrix,
    v0: np.ndarray | None = None,
    max_steps: int = 60,
    tolerance: float = 1e-9,
    seed=0,
) -> SpectralState:
    """Dominant eigenpair of a *symmetric* matrix via the Lanczos iteration.

    The same recurrence as :func:`spectral_radius` (the batch path), but
    with the start vector exposed and the Krylov basis kept to assemble a
    Ritz vector, which is what makes it incremental: after an edge delta,
    the previous Ritz vector is an excellent ``v0`` and the iteration
    typically converges in < 15 steps instead of a cold start's 16 to 50.

    The three-term recurrence is run without reorthogonalization — safe
    here because we only ever need the extremal eigenvalue and stop as soon
    as the Ritz value stabilizes to ``tolerance`` (relative).  Symmetry of
    the input is assumed, not checked.
    """
    check_positive(max_steps, "max_steps")
    n = matrix.shape[0]
    if n == 0:
        return SpectralState(0.0, np.zeros(0), 0)
    if v0 is None:
        v0 = ensure_rng(seed).standard_normal(n)
    vector = np.asarray(v0, dtype=np.float64).ravel()
    if vector.shape[0] != n:
        raise ValueError(
            f"v0 has length {vector.shape[0]} for a {n}x{n} matrix"
        )
    norm = np.linalg.norm(vector)
    if norm == 0:
        vector = ensure_rng(seed).standard_normal(n)
        norm = np.linalg.norm(vector)
    radius, ritz_vector, n_steps, residual_bound, _ = _lanczos(
        matrix, vector / norm, max_steps, tolerance, keep_basis=True
    )
    return SpectralState(radius, ritz_vector, n_steps, residual_bound)


def _lanczos(matrix, start, max_steps, tolerance, keep_basis):
    """The Lanczos recurrence from the unit vector ``start``.

    Returns ``(radius, ritz_vector, n_steps, residual_bound, converged)``.
    ``converged`` is False when the step cap ended the run before the Ritz
    value met ``tolerance``.  Without ``keep_basis`` only the two vectors
    the three-term recurrence reads are held, and ``ritz_vector`` is None.
    """
    basis = [start]
    alphas: list[float] = []
    betas: list[float] = []
    previous = None
    radius = 0.0
    residual_bound = float("inf")
    ritz_weights = np.ones(1)
    converged = True
    for step in range(max_steps):
        product = np.asarray(matrix @ basis[-1], dtype=np.float64).ravel()
        alpha = float(basis[-1] @ product)
        product -= alpha * basis[-1]
        if step > 0:
            product -= betas[-1] * basis[-2]
        alphas.append(alpha)
        tridiagonal = np.diag(alphas)
        for index, beta in enumerate(betas):
            tridiagonal[index, index + 1] = beta
            tridiagonal[index + 1, index] = beta
        eigenvalues, eigenvectors = np.linalg.eigh(tridiagonal)
        dominant = int(np.argmax(np.abs(eigenvalues)))
        radius = float(abs(eigenvalues[dominant]))
        ritz_weights = eigenvectors[:, dominant]
        beta = float(np.linalg.norm(product))
        # Lanczos residual identity: ||A x - theta x|| = beta_{k+1} |y_k|
        # for the Ritz pair assembled from the current basis.  For the
        # *eigenvalue* the linear bound is wildly pessimistic — symmetric
        # Ritz values converge quadratically — so sharpen it with Temple's
        # inequality, |lambda - theta| <= residual^2 / gap, using the Ritz
        # spread as the gap estimate once a second Ritz value exists.
        residual = beta * float(abs(ritz_weights[-1]))
        residual_bound = residual
        if eigenvalues.shape[0] > 1:
            others = np.delete(np.abs(eigenvalues), dominant)
            gap = float(np.abs(others - radius).min())
            if gap > residual:
                residual_bound = residual * residual / gap
        if previous is not None and abs(radius - previous) <= tolerance * max(
            radius, 1e-300
        ):
            break
        previous = radius
        if beta < 1e-14:
            residual_bound = 0.0
            break  # invariant subspace: the estimate is exact
        betas.append(beta)
        product /= beta
        basis.append(product)
        if not keep_basis:
            del basis[:-2]
    else:
        converged = False
    ritz_vector = None
    if keep_basis:
        ritz_vector = np.zeros(matrix.shape[0])
        for weight, direction in zip(ritz_weights, basis):
            ritz_vector += weight * direction
        norm = np.linalg.norm(ritz_vector)
        if norm > 0:
            ritz_vector /= norm
    return radius, ritz_vector, len(alphas), residual_bound, converged


def linbp_scaling(
    adjacency, centered_compatibility: np.ndarray, safety: float = 0.5, seed=0
) -> float:
    """The scaling factor ``epsilon`` that guarantees LinBP convergence.

    Returns ``epsilon = safety / (ceil_ladder(rho(W)) * rho(H~))`` so that
    the scaled compatibility matrix satisfies the convergence condition of
    Eq. 2 with a margin of ``safety`` (the paper uses ``s = 0.5``).
    ``rho(W)`` is snapped up onto the scaling ladder (see
    :func:`quantize_radius`) before use, so streaming re-estimates that
    drift by less than a rung reproduce the batch scaling exactly.
    """
    check_positive(safety, "safety")
    radius_w = spectral_radius(adjacency, seed=seed)
    radius_h = spectral_radius(np.asarray(centered_compatibility), seed=seed)
    if radius_w == 0 or radius_h == 0:
        return 1.0
    return float(safety / (quantize_radius(radius_w) * radius_h))

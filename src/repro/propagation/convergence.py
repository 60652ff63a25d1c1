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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.utils.matrix import to_csr
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "spectral_radius",
    "cold_radius",
    "linbp_scaling",
    "SpectralState",
    "lanczos_spectral_state",
    "quantize_radius",
    "ladder_rung",
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
        return cold_radius(matrix, seed)[0]
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(dense))))


def ladder_rung(rayleigh: float, residual_sq: float, gap: float) -> float | None:
    """The ladder rung of ``rho(W)`` when Temple's interval fits one, else None.

    A unit ``v`` with ``rayleigh = v'Wv`` and ``r = Wv - rayleigh v`` puts
    the top eigenvalue of a symmetric ``W`` in ``[rayleigh, rayleigh +
    ||r||^2 / gap]`` (Temple), for ``rayleigh - gap`` at or above the second
    eigenvalue.  It is ``rho(W)`` for a nonnegative ``W`` (Perron-Frobenius).
    Both ends get 1e-12 (relative) of slack for the rounding of their sums.
    """
    if not gap > 0.0 or not rayleigh > 0.0:
        return None
    low = quantize_radius(rayleigh * (1.0 - 1e-12))
    high = quantize_radius((rayleigh + residual_sq / gap) * (1.0 + 1e-12))
    return low if low == high else None


def cold_radius(matrix, seed=0) -> tuple[float, float, int]:
    """:func:`spectral_radius` of a sparse matrix, with the run's second Ritz
    value and its step count (= matrix-vector products)."""
    matrix = to_csr(matrix)
    n = matrix.shape[0]
    if n == 0:
        return 0.0, 0.0, 0
    start = ensure_rng(seed).standard_normal(n)
    start /= np.linalg.norm(start)
    radius, _, n_steps, second, converged = _lanczos(
        matrix, start, COLD_LANCZOS_STEPS, COLD_LANCZOS_TOLERANCE, keep_basis=False
    )
    if not converged:
        radius = float(abs(matrix).sum(axis=1).max())
    return radius, second, n_steps


@dataclass
class SpectralState:
    """Dominant eigenpair estimate of a symmetric ``W``, carried under deltas.

    Attributes
    ----------
    radius:
        Estimated spectral radius ``|lambda_max|``.
    vector:
        Unit-norm Ritz vector ``v`` of the dominant eigenvalue, a good
        ``v0`` for the next run after a small change of ``W``.
    product:
        ``Wv``, from the run's own products (the Lanczos relation).
    n_steps:
        Lanczos steps (= matrix-vector products) actually performed.
    second:
        Second-largest Ritz value of the run (``radius`` if it found only
        one); Ritz values interlace, so it is at most ``W``'s second
        eigenvalue.
    rayleigh, product_sq:
        ``v'Wv`` and ``||Wv||^2``.  :meth:`advance` moves them and
        ``product`` to ``W + dW`` on the rows ``dW`` touches.
    """

    radius: float
    vector: np.ndarray
    product: np.ndarray
    n_steps: int
    second: float
    rayleigh: float = field(init=False)
    product_sq: float = field(init=False)

    def __post_init__(self) -> None:
        self.rayleigh = float(self.vector @ self.product)
        self.product_sq = float(self.product @ self.product)

    def advance(self, changes, n_nodes: int) -> None:
        """Move to ``W`` plus each COO ``dW`` of ``changes``; nodes up to
        ``n_nodes`` enter with zero entries in ``v`` and ``Wv``."""
        grow = n_nodes - self.vector.shape[0]
        if grow > 0:
            self.vector = np.concatenate((self.vector, np.zeros(grow)))
            self.product = np.concatenate((self.product, np.zeros(grow)))
        for change in changes:
            touched, inverse = np.unique(change.row, return_inverse=True)
            delta = np.bincount(
                inverse, weights=change.data * self.vector[change.col],
                minlength=touched.shape[0],
            )
            before = self.product[touched]
            after = before + delta
            self.rayleigh += float(self.vector[touched] @ delta)
            self.product_sq += float(after @ after - before @ before)
            self.product[touched] = after

    @property
    def residual_sq(self) -> float:
        """``||Wv - (v'Wv) v||^2`` (clamped at zero against rounding)."""
        return max(0.0, self.product_sq - self.rayleigh * self.rayleigh)


def lanczos_spectral_state(
    matrix,
    v0: np.ndarray | None = None,
    max_steps: int = 60,
    tolerance: float = 1e-9,
    seed=0,
    settled=None,
) -> SpectralState:
    """Dominant eigenpair of a *symmetric* matrix via the Lanczos iteration.

    The same recurrence as :func:`spectral_radius` (the batch path), but
    with the start vector exposed and the Krylov basis kept to assemble a
    Ritz vector, which is what makes it incremental: after an edge delta,
    the previous Ritz vector is an excellent ``v0`` and the iteration
    typically converges in < 15 steps instead of a cold start's 16 to 50.

    ``settled(ritz_value, residual_norm)``, if given, may end it earlier.

    The three-term recurrence is run without reorthogonalization — safe
    here because we only ever need the extremal eigenvalue and stop as soon
    as the Ritz value stabilizes to ``tolerance`` (relative).  Symmetry of
    the input is assumed, not checked.
    """
    check_positive(max_steps, "max_steps")
    n = matrix.shape[0]
    if n == 0:
        return SpectralState(0.0, np.zeros(0), np.zeros(0), 0, 0.0)
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
    radius, ritz, n_steps, second, _ = _lanczos(
        matrix, vector / norm, max_steps, tolerance, keep_basis=True,
        settled=settled,
    )
    return SpectralState(radius, *ritz, n_steps, second)


def _lanczos(matrix, start, max_steps, tolerance, keep_basis, settled=None):
    """The Lanczos recurrence from the unit vector ``start``.

    Returns ``(radius, ritz, n_steps, second, converged)``.
    ``converged`` is False when the step cap ended the run first.  ``ritz``
    is the unit Ritz vector and its product with ``matrix``; without
    ``keep_basis`` only the two vectors the recurrence reads are held, and
    ``ritz`` is None.
    """
    basis = [start]
    if keep_basis:
        # The outputs are allocated before the basis, so that freeing the
        # basis leaves no live array above it and the allocator can hand
        # the space back (a serve worker otherwise keeps it resident).
        ritz_vector, ritz_product = np.zeros(start.shape[0]), np.empty(start.shape[0])
    alphas: list[float] = []
    betas: list[float] = []
    previous = None
    radius = second = ritz_value = 0.0
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
        ritz_value = float(eigenvalues[dominant])
        radius = abs(ritz_value)
        second = float(eigenvalues[-2]) if eigenvalues.shape[0] > 1 else radius
        ritz_weights = eigenvectors[:, dominant]
        beta = float(np.linalg.norm(product))
        # Lanczos residual identity: ||A x - theta x|| = beta_{k+1} |y_k|
        # for the Ritz pair assembled from the current basis.
        if settled is not None and settled(radius, beta * float(abs(ritz_weights[-1]))):
            break
        if previous is not None and abs(radius - previous) <= tolerance * max(
            radius, 1e-300
        ):
            break
        previous = radius
        if beta < 1e-14:
            break  # invariant subspace: the estimate is exact
        betas.append(beta)
        product /= beta
        basis.append(product)
        if not keep_basis:
            del basis[:-2]
    else:
        converged = False
        product = betas[-1] * basis[-1]  # the residual r_k
    ritz = None
    if keep_basis:
        # A Q y = Q T y + r_k e_k' y = theta Q y + y_k r_k: the Ritz vector's
        # product with A from the recurrence itself (Paige: the relation
        # holds to rounding however much orthogonality the basis lost).
        for weight, direction in zip(ritz_weights, basis):
            ritz_vector += weight * direction
        np.multiply(ritz_vector, ritz_value, out=ritz_product)
        ritz_product += ritz_weights[-1] * product
        norm = np.linalg.norm(ritz_vector)
        if norm > 0:
            ritz_vector /= norm
            ritz_product /= norm
        ritz = (ritz_vector, ritz_product)
    return radius, ritz, len(alphas), second, converged


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

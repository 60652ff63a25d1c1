"""Batched Levenberg-Marquardt solve over the free parameters of DCE/DCEr.

DCE's energy is a sum of squares over the ``k* = k(k-1)/2`` free
parameters, so all of DCEr's restarts take their damped steps together,
one stacked linear solve per round (:func:`least_squares_batch`).  The
other estimators need no iterative solver here: MCE (Eq. 12) is a
closed-form projection, LCE (Eq. 8) one ``k* x k*`` linear solve, and the
Holdout baseline runs scipy's Nelder-Mead on its step-function accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BatchOutcome",
    "least_squares_batch",
]

# Marquardt's damping schedule: each start solves
# ``(M + mu diag(J^T J)) step = -J^T r`` and divides ``mu`` by DAMPING_SHRINK
# after a step that lowers its energy, multiplies it by DAMPING_GROW after
# one that does not.
DAMPING_INITIAL = 0.1
DAMPING_SHRINK = 3.0
DAMPING_GROW = 4.0
# ``M`` is the Gauss-Newton ``J^T J`` until an accepted step gains at most
# NEWTON_SWITCH of the energy, and the exact half Hessian ``J^T J + C`` from
# then on: with large residuals Gauss-Newton alone converges only linearly.
NEWTON_SWITCH = 1e-4
# A start stops once an accepted step lowers its energy by at most this
# fraction, or once its damping exceeds DAMPING_LIMIT (no step lowers it).
RELATIVE_DECREASE = 1e-10
DAMPING_LIMIT = 1e12


@dataclass
class BatchOutcome:
    """Result of :func:`least_squares_batch`, one row or entry per start.

    Attributes
    ----------
    parameters:
        ``(B, n)`` final points.
    energies:
        ``(B,)`` final sums of squares.
    n_iterations:
        ``(B,)`` damped steps tried per start.
    converged:
        ``(B,)`` whether the start met the stop rule before the iteration cap.
    n_evaluations:
        Energy evaluations summed over starts.
    n_rounds:
        Batched rounds, the most iterations any start took.
    """

    parameters: np.ndarray
    energies: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray
    n_evaluations: int
    n_rounds: int


def least_squares_batch(
    energy: Callable[[np.ndarray], np.ndarray],
    hessian_terms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    starts: np.ndarray,
    max_iterations: int = 500,
) -> BatchOutcome:
    """Minimize a sum of squares ``||r(x)||^2`` from every row of ``starts`` at once.

    ``energy`` maps a ``(B, n)`` stack of points to their ``B`` energies, and
    ``hessian_terms`` to ``J^T J`` (``(B, n, n)``), ``J^T r`` (``(B, n)``)
    and the curvature ``C = sum_i r_i Hess(r_i)`` (``(B, n, n)``) of the
    residuals' Jacobian ``J``; both must treat each row on its own.  Every
    start runs Levenberg-Marquardt with its own damping (see ``DAMPING_*``
    and ``NEWTON_SWITCH``) and leaves the batch when it meets the stop rule
    (``RELATIVE_DECREASE``, ``DAMPING_LIMIT``) or after ``max_iterations``
    steps; no start is dropped for its energy.
    """
    points = np.array(starts, dtype=np.float64, ndmin=2)
    count, size = points.shape
    energies = energy(points)
    iterations = np.zeros(count, dtype=np.int64)
    converged = np.full(count, size == 0)  # no parameters: nothing to optimize
    newton = np.zeros(count, dtype=bool)
    damping = np.full(count, DAMPING_INITIAL)
    active = np.flatnonzero(~converged)
    diagonal = np.arange(size)
    gram = np.empty((count, size, size))
    gradient = np.empty((count, size))
    curvature = np.empty((count, size, size))
    n_evaluations, n_rounds = count, 0
    if active.size:
        gram[active], gradient[active], curvature[active] = hessian_terms(points[active])
    while active.size:
        n_rounds += 1
        scale = np.diagonal(gram, axis1=1, axis2=2)[active]
        system = gram[active] + newton[active, None, None] * curvature[active]
        system[:, diagonal, diagonal] += damping[active, None] * scale
        steps = np.linalg.solve(system, -gradient[active, :, None])[:, :, 0]
        trial = points[active] + steps
        with np.errstate(over="ignore", invalid="ignore"):
            trial_energies = energy(trial)
        n_evaluations += active.size
        iterations[active] += 1
        previous = energies[active]
        accepted = trial_energies < previous  # never a NaN or overflowed trial
        gain = previous - trial_energies
        moved = active[accepted]
        points[moved] = trial[accepted]
        energies[moved] = trial_energies[accepted]
        damping[moved] /= DAMPING_SHRINK
        damping[active[~accepted]] *= DAMPING_GROW
        newton[active[accepted & (gain <= NEWTON_SWITCH * previous)]] = True
        stopped = (accepted & (gain <= RELATIVE_DECREASE * previous)) | (
            damping[active] > DAMPING_LIMIT
        )
        converged[active[stopped]] = True
        finished = stopped | (iterations[active] >= max_iterations)
        refresh = active[accepted & ~finished]
        if refresh.size:
            gram[refresh], gradient[refresh], curvature[refresh] = hessian_terms(points[refresh])
        active = active[~finished]
    return BatchOutcome(points, energies, iterations, converged, n_evaluations, n_rounds)

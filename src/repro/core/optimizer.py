"""Optimization wrappers over the free parameters of a compatibility matrix.

The estimators hand this module an energy defined over the
``k* = k(k-1)/2`` free parameters and receive the optimized parameters
back.  Three solvers are exposed:

* SLSQP (with the analytic gradient when available) for LCE and MCE,
* Nelder-Mead for the Holdout baseline, whose accuracy objective is a step
  function and therefore gradient-free territory,
* a batched Levenberg-Marquardt solve for DCE/DCEr, whose energy is a sum
  of squares: all restarts take their damped steps together, one stacked
  linear solve per round (:func:`least_squares_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from repro.core.compatibility import (
    free_parameter_count,
    uniform_vector,
    vector_to_matrix,
)
from repro.core.energy import free_parameter_gradient

__all__ = [
    "OptimizationOutcome",
    "minimize_free_parameters",
    "minimize_matrix_energy",
    "best_outcome",
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
class OptimizationOutcome:
    """Result of one optimization run over the free parameters.

    Attributes
    ----------
    parameters:
        Optimized free-parameter vector ``h``.
    matrix:
        Full ``k x k`` compatibility matrix reconstructed from ``parameters``.
    energy:
        Final objective value.
    n_iterations:
        Iterations reported by the scipy optimizer.
    converged:
        Whether scipy reported success.
    initial_parameters:
        Starting point, kept for diagnostics of the restart strategy.
    """

    parameters: np.ndarray
    matrix: np.ndarray
    energy: float
    n_iterations: int
    converged: bool
    initial_parameters: np.ndarray = field(default_factory=lambda: np.array([]))


def minimize_free_parameters(
    objective: Callable[[np.ndarray], float],
    n_classes: int,
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
    initial: np.ndarray | None = None,
    method: str = "SLSQP",
    bounds: tuple[float, float] | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-9,
) -> OptimizationOutcome:
    """Minimize ``objective(h)`` over the ``k*`` free parameters.

    Parameters
    ----------
    objective:
        Scalar function of the free-parameter vector.
    n_classes:
        Number of classes ``k`` (defines the parameter dimension).
    gradient:
        Optional analytic gradient; strongly recommended for DCE (Prop 4.7).
    initial:
        Starting point; defaults to the uninformative all-``1/k`` vector.
    method:
        Any scipy method name; the library uses ``"SLSQP"`` and
        ``"Nelder-Mead"``.
    bounds:
        Optional ``(low, high)`` box applied to every free parameter.
    """
    k_star = free_parameter_count(n_classes)
    if initial is None:
        initial = uniform_vector(n_classes)
    initial = np.asarray(initial, dtype=np.float64).ravel()
    if initial.shape[0] != k_star:
        raise ValueError(
            f"initial point has {initial.shape[0]} entries, expected {k_star}"
        )
    if k_star == 0:
        # One class: H = [[1]] has nothing left to optimize.
        return OptimizationOutcome(
            parameters=initial,
            matrix=vector_to_matrix(initial, n_classes),
            energy=float(objective(initial)),
            n_iterations=0,
            converged=True,
            initial_parameters=initial,
        )
    scipy_bounds = None
    if bounds is not None:
        scipy_bounds = [bounds] * k_star

    options = {"maxiter": max_iterations}
    jac = gradient if method not in ("Nelder-Mead", "Powell") else None
    result = optimize.minimize(
        objective,
        initial,
        jac=jac,
        method=method,
        bounds=scipy_bounds,
        tol=tolerance,
        options=options,
    )
    parameters = np.asarray(result.x, dtype=np.float64)
    return OptimizationOutcome(
        parameters=parameters,
        matrix=vector_to_matrix(parameters, n_classes),
        energy=float(result.fun),
        n_iterations=int(getattr(result, "nit", 0) or 0),
        converged=bool(result.success),
        initial_parameters=initial,
    )


def minimize_matrix_energy(
    energy: Callable[[np.ndarray], float],
    matrix_gradient: Callable[[np.ndarray], np.ndarray],
    n_classes: int,
    **options,
) -> OptimizationOutcome:
    """:func:`minimize_free_parameters` for an energy and gradient of the full ``H``.

    Both read ``H`` through Eq. 6, and the free-parameter gradient is the
    chain rule :func:`~repro.core.energy.free_parameter_gradient`.
    """
    return minimize_free_parameters(
        lambda parameters: energy(vector_to_matrix(parameters, n_classes)),
        n_classes,
        gradient=lambda parameters: free_parameter_gradient(
            matrix_gradient(vector_to_matrix(parameters, n_classes)), n_classes
        ),
        **options,
    )


def best_outcome(outcomes: Sequence[OptimizationOutcome]) -> OptimizationOutcome:
    """Return the outcome with the lowest final energy (DCEr's selection rule)."""
    if not outcomes:
        raise ValueError("no optimization outcomes to choose from")
    return min(outcomes, key=lambda outcome: outcome.energy)


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

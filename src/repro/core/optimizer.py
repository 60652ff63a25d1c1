"""Optimization wrappers over the free parameters of a compatibility matrix.

The estimators hand this module a scalar energy (and optionally an analytic
gradient) defined over the ``k* = k(k-1)/2`` free parameters and receive the
optimized full matrix back.  Two scipy optimizers are exposed, mirroring the
paper's setup:

* SLSQP (with the analytic gradient when available) for LCE/MCE/DCE/DCEr,
* Nelder-Mead for the Holdout baseline, whose accuracy objective is a step
  function and therefore gradient-free territory.
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
]


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

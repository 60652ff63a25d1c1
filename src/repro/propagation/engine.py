"""Unified propagation engine: interface, shared loop, and registries.

Every propagation algorithm in the library — LinBP (with and without echo
cancellation), loopy BP, harmonic functions — answers the same question
("given a graph, some seed labels and possibly a compatibility matrix, what
is everyone's label?").  This module provides the shared substrate:

* :class:`Propagator` — the abstract interface.  Subclasses implement
  :meth:`Propagator._run`; the base class handles validation, one-hot
  priors, timing, arg-max labeling and seed clamping.
* :func:`fixed_point_iterate` — the one buffer-reusing fixed-point loop
  (configurable tolerance and iteration cap, residual history, optional
  float32 iterates) that every iterative propagator runs on.
* :class:`PropagationResult` — the uniform return type: beliefs, labels,
  iteration count, convergence flag, residual history and wall time.
* ``PROPAGATORS`` / ``ESTIMATORS`` — string-keyed registries with
  :func:`register_propagator` / :func:`register_estimator` decorators, so
  experiments, sweeps, benchmarks and the CLI select algorithms by name.

Warm starts and the localized push mode are LinBP's alone
(:class:`~repro.propagation.linbp.LinBPPropagator`), the only algorithm
the streaming and serving layers run.  Registering a new propagator takes
~10 lines; see the package docstring of :mod:`repro.propagation` for a
worked example.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.graph.graph import labels_from_one_hot, one_hot_labels
from repro.graph.operators import GraphOperators, operators_for
from repro.utils.validation import check_labels, check_positive, check_square

__all__ = [
    "PropagationResult",
    "Propagator",
    "fixed_point_iterate",
    "PROPAGATORS",
    "ESTIMATORS",
    "register_propagator",
    "register_estimator",
    "get_propagator",
    "get_estimator",
    "propagator_names",
    "estimator_names",
]


# --------------------------------------------------------------------- result
@dataclass
class PropagationResult:
    """Uniform outcome of any propagator run.

    Attributes
    ----------
    beliefs:
        Final ``n x k`` belief/score matrix.
    labels:
        Arg-max label per node (``-1`` where no information arrived).  When
        the run was started from seed labels, seed nodes keep their given
        label.
    n_iterations:
        Fixed-point sweeps performed (0 for non-iterative propagators).
    converged:
        True when the last sweep changed the iterate by less than the
        propagator's tolerance.
    residuals:
        Max-norm residual after each sweep — the convergence trajectory.
    elapsed_seconds:
        Wall-clock time of the propagation (excluding validation).
    propagator:
        Registry name of the algorithm that produced the result.
    details:
        Algorithm-specific extras (e.g. LinBP's ``scaling`` epsilon).
    """

    beliefs: np.ndarray
    labels: np.ndarray
    n_iterations: int
    converged: bool
    residuals: list[float]
    elapsed_seconds: float
    propagator: str = ""
    details: dict = field(default_factory=dict)


# ------------------------------------------------------------------ iteration
def fixed_point_iterate(
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    initial: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int, bool, list[float]]:
    """Run ``x <- step(x)`` to a fixed point, reusing buffers between sweeps.

    Parameters
    ----------
    step:
        ``step(current, out)`` computes the next iterate.  It may write into
        the preallocated ``out`` buffer and return it (zero-allocation path)
        or return a freshly allocated array, which the loop adopts.
    initial:
        Starting iterate; copied, never mutated.
    max_iterations:
        Iteration cap.
    tolerance:
        Stop when ``max |x_new - x_old|`` drops below this value.

    Returns
    -------
    ``(final, n_iterations, converged, residuals)`` where ``residuals`` is
    the per-sweep max-norm change.
    """
    current = np.array(initial, copy=True)
    proposal = np.empty_like(current)
    scratch = np.empty_like(current)
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iteration in range(max_iterations):
        produced = step(current, proposal)
        if produced is not proposal:
            proposal = np.asarray(produced)
            if scratch.shape != proposal.shape or scratch.dtype != proposal.dtype:
                scratch = np.empty_like(proposal)
        if current.size:
            np.subtract(proposal, current, out=scratch)
            np.abs(scratch, out=scratch)
            residual = float(scratch.max())
        else:
            residual = 0.0
        residuals.append(residual)
        current, proposal = proposal, current
        iterations = iteration + 1
        if residual < tolerance:
            converged = True
            break
    return current, iterations, converged, residuals


# ------------------------------------------------------------------ interface
class Propagator(abc.ABC):
    """Abstract base class of every propagation algorithm.

    Subclasses set :attr:`name` (the registry key), optionally
    :attr:`needs_compatibility`, and implement :meth:`_run`.  The public
    :meth:`propagate` entry point accepts either a
    :class:`~repro.graph.graph.Graph` (whose cached operator layer is then
    reused across calls) or a raw adjacency matrix.

    Parameters
    ----------
    max_iterations:
        Cap on fixed-point sweeps.
    tolerance:
        Max-norm convergence threshold of the shared loop.
    dtype:
        Dtype of the iterates; ``numpy.float32`` halves memory traffic on
        large graphs at a small accuracy cost.
    """

    name = "propagator"
    needs_compatibility = False

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-8,
        dtype=np.float64,
    ) -> None:
        check_positive(max_iterations, "max_iterations")
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.dtype = np.dtype(dtype)

    # ------------------------------------------------------------ public API
    def propagate(
        self,
        graph,
        seed_labels: np.ndarray | None = None,
        compatibility: np.ndarray | None = None,
        *,
        prior_beliefs=None,
        n_classes: int | None = None,
    ) -> PropagationResult:
        """Run the algorithm and return a :class:`PropagationResult`.

        Parameters
        ----------
        graph:
            A :class:`~repro.graph.graph.Graph`, a raw adjacency matrix, or
            a :class:`~repro.graph.operators.GraphOperators` instance.
        seed_labels:
            Full-length label vector with ``-1`` for unlabeled nodes.  Seed
            nodes keep their given label in the output.  Either this or
            ``prior_beliefs`` must be provided.
        compatibility:
            ``k x k`` compatibility matrix; required when the algorithm's
            :attr:`needs_compatibility` is True, ignored otherwise.
        prior_beliefs:
            Explicit ``n x k`` prior-belief matrix; overrides the one-hot
            encoding of ``seed_labels`` (LinBP/BP ablations use this).
        n_classes:
            Number of classes; inferred from the compatibility matrix, the
            prior beliefs, the graph or the seed labels when omitted.
        """
        problem = self._problem(
            graph, seed_labels, compatibility, prior_beliefs, n_classes
        )
        return self._solve("cold", problem, lambda: self._run(*problem))

    def _problem(
        self, graph, seed_labels, compatibility, prior_beliefs, n_classes
    ) -> tuple:
        """Validate the inputs of :meth:`propagate`.

        Returns ``(operators, prior_beliefs, seed_labels, n_classes,
        compatibility)`` — the positional arguments of :meth:`_run`.
        """
        operators = operators_for(graph)
        n_nodes = operators.n_nodes

        n_classes = self._resolve_n_classes(
            graph, seed_labels, compatibility, prior_beliefs, n_classes
        )
        if seed_labels is not None:
            seed_labels = check_labels(
                seed_labels, n_nodes=n_nodes, n_classes=n_classes
            )
        if compatibility is not None:
            compatibility = check_square(compatibility, "compatibility")
        elif self.needs_compatibility:
            raise ValueError(f"{self.name} requires a compatibility matrix")

        if prior_beliefs is None:
            if seed_labels is None:
                raise ValueError("provide seed_labels or prior_beliefs")
            prior_beliefs = one_hot_labels(seed_labels, n_classes)
        if prior_beliefs.shape[0] != n_nodes:
            raise ValueError(
                f"prior beliefs have {prior_beliefs.shape[0]} rows for a graph "
                f"with {n_nodes} nodes"
            )
        if compatibility is not None and prior_beliefs.shape[1] != compatibility.shape[0]:
            raise ValueError(
                f"prior beliefs have {prior_beliefs.shape[1]} columns but the "
                f"compatibility matrix is "
                f"{compatibility.shape[0]}x{compatibility.shape[0]}"
            )
        return operators, prior_beliefs, seed_labels, n_classes, compatibility

    def _solve(self, path: str, problem: tuple, run) -> PropagationResult:
        """Time ``run()`` under the ``engine.solve`` span and wrap its outcome."""
        operators, _, seed_labels, _, _ = problem
        start = time.perf_counter()
        with obs.span(
            "engine.solve", propagator=self.name, path=path,
            n_nodes=operators.n_nodes,
        ):
            beliefs, n_iterations, converged, residuals, details = run()
        elapsed = time.perf_counter() - start
        self._record_solve(path, converged, elapsed)

        labels = labels_from_one_hot(beliefs)
        if seed_labels is not None:
            seeded = seed_labels >= 0
            labels[seeded] = seed_labels[seeded]
        return PropagationResult(
            beliefs=beliefs,
            labels=labels,
            n_iterations=n_iterations,
            converged=converged,
            residuals=residuals,
            elapsed_seconds=elapsed,
            propagator=self.name,
            details=details,
        )

    def _record_solve(self, path: str, converged: bool, elapsed: float) -> None:
        """Publish per-solve metrics (no-op under ``REPRO_OBS=off``)."""
        if not obs.enabled():
            return
        registry = obs.metrics()
        registry.counter(
            "repro_engine_solves_total", "Propagation solves by algorithm and path.",
            propagator=self.name, path=path,
        ).inc()
        registry.histogram(
            "repro_engine_solve_seconds", "Wall time of one propagation solve.",
            propagator=self.name,
        ).observe(elapsed)
        if not converged:
            registry.counter(
                "repro_engine_nonconverged_total",
                "Solves that hit the iteration cap before converging.",
                propagator=self.name,
            ).inc()

    # --------------------------------------------------------------- helpers
    def _resolve_n_classes(
        self, graph, seed_labels, compatibility, prior_beliefs, n_classes
    ) -> int:
        if n_classes is None and compatibility is not None:
            n_classes = int(np.asarray(compatibility).shape[0])
        if n_classes is None and prior_beliefs is not None:
            n_classes = int(prior_beliefs.shape[1])
        if n_classes is None:
            n_classes = getattr(graph, "n_classes", None)
        if n_classes is None and seed_labels is not None:
            observed = np.asarray(seed_labels)
            if observed.size and observed.max() >= 0:
                n_classes = int(observed.max()) + 1
        if n_classes is None:
            raise ValueError(
                f"{self.name} cannot infer the number of classes; pass "
                "n_classes, a compatibility matrix, or a labeled Graph"
            )
        check_positive(n_classes, "n_classes")
        return int(n_classes)

    @staticmethod
    def _dense(matrix, dtype=np.float64) -> np.ndarray:
        """Prior beliefs as a dense float array (sparse inputs are expanded)."""
        if sp.issparse(matrix):
            return np.asarray(matrix.todense(), dtype=dtype)
        return np.asarray(matrix, dtype=dtype)

    @abc.abstractmethod
    def _run(
        self,
        operators: GraphOperators,
        prior_beliefs,
        seed_labels: np.ndarray | None,
        n_classes: int,
        compatibility: np.ndarray | None,
    ) -> tuple[np.ndarray, int, bool, list[float], dict]:
        """Return ``(beliefs, n_iterations, converged, residuals, details)``."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{self.__class__.__name__}(name={self.name!r})"


# ----------------------------------------------------------------- registries
PROPAGATORS: dict[str, type[Propagator]] = {}
"""Registry of propagation algorithms, keyed by their CLI/experiment name."""

ESTIMATORS: dict[str, type] = {}
"""Registry of compatibility estimators, keyed by their ``method_name``."""


def register_propagator(name: str | None = None):
    """Class decorator adding a :class:`Propagator` to ``PROPAGATORS``.

    Uses the class's ``name`` attribute when ``name`` is omitted; duplicate
    registrations raise so two algorithms can never shadow each other.
    """

    def decorator(cls):
        key = name or cls.name
        if key in PROPAGATORS:
            raise ValueError(f"propagator {key!r} is already registered")
        PROPAGATORS[key] = cls
        return cls

    return decorator


def register_estimator(name: str | None = None):
    """Class decorator adding an estimator class to ``ESTIMATORS``."""

    def decorator(cls):
        key = name or getattr(cls, "method_name", cls.__name__)
        if key in ESTIMATORS:
            raise ValueError(f"estimator {key!r} is already registered")
        ESTIMATORS[key] = cls
        return cls

    return decorator


def get_propagator(name: str, **kwargs) -> Propagator:
    """Instantiate a registered propagator by name.

    ``kwargs`` are forwarded to the class constructor; an unknown name lists
    the available algorithms in the error message.
    """
    try:
        cls = PROPAGATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown propagator {name!r}; registered: {propagator_names()}"
        ) from None
    return cls(**kwargs)


def get_estimator(name: str, **kwargs):
    """Instantiate a registered estimator by name."""
    try:
        cls = ESTIMATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; registered: {estimator_names()}"
        ) from None
    return cls(**kwargs)


def propagator_names() -> list[str]:
    """Sorted names of all registered propagation algorithms."""
    return sorted(PROPAGATORS)


def estimator_names() -> list[str]:
    """Sorted names of all registered estimators."""
    return sorted(ESTIMATORS)

"""End-to-end experiment runner: sample seeds, estimate H, propagate, score.

One :func:`run_experiment` call is one point on one of the paper's accuracy
plots: it reveals a stratified fraction ``f`` of the labels, runs a
compatibility estimator, labels the remaining nodes with any registered
propagation algorithm (LinBP by default) using the estimated matrix, and
reports macro accuracy plus the L2 distance of the estimate from the gold
standard.

The propagation step goes through the unified engine
(:mod:`repro.propagation.engine`), so every Fig-7-style baseline comparison
runs the same code path: pass ``propagator="harmonic"`` (or any name in
``PROPAGATORS``) to swap the algorithm, and repeated calls on the same
:class:`~repro.graph.graph.Graph` reuse its cached operator layer — the
spectral radius behind LinBP's scaling runs once per graph,
not once per experiment point.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.estimators.base import BaseEstimator
from repro.core.statistics import gold_standard_compatibility
from repro.eval.metrics import compatibility_l2, macro_accuracy
from repro.eval.seeding import stratified_seed_indices
from repro.graph.graph import Graph
from repro.propagation.engine import PROPAGATORS, Propagator
from repro.utils.rng import ensure_rng

__all__ = ["ExperimentResult", "run_experiment", "resolve_propagator"]


@dataclass
class ExperimentResult:
    """One estimation-plus-propagation run.

    Attributes
    ----------
    method:
        Estimator name.
    label_fraction:
        The fraction ``f`` of revealed labels (or seed count / n when the
        experiment fixed an absolute seed count).
    accuracy:
        Macro-averaged accuracy over the non-seed nodes.
    l2_to_gold:
        Frobenius distance between the estimated matrix and the measured
        gold-standard matrix of the graph.
    estimation_seconds / propagation_seconds:
        Wall-clock time of the two phases.
    compatibility:
        The estimated compatibility matrix.
    details:
        Estimator-provided details, passed through for inspection.
    propagator:
        Registry name of the propagation algorithm used for the labeling.
    propagation_iterations / propagation_converged:
        Fixed-point sweeps the propagator actually ran and whether it met
        its tolerance — unconverged baselines are visible, not silent.
    """

    method: str
    label_fraction: float
    accuracy: float
    l2_to_gold: float
    estimation_seconds: float
    propagation_seconds: float
    compatibility: np.ndarray
    n_seeds: int
    details: dict = field(default_factory=dict)
    propagator: str = "linbp"
    propagation_iterations: int = 0
    propagation_converged: bool = True


def resolve_propagator(
    propagator: str | Propagator,
    propagator_kwargs: dict | None = None,
    n_iterations: int | None = None,
    safety: float | None = None,
) -> Propagator:
    """Turn a registry name (or a ready instance) into a :class:`Propagator`.

    ``n_iterations`` and ``safety`` are applied as defaults only when they
    were explicitly provided (not None), the selected class accepts them,
    and ``propagator_kwargs`` does not already set them — so every
    algorithm keeps its native defaults unless the caller overrides them.

    Passing a ready :class:`Propagator` instance together with constructor
    configuration is rejected: the instance is already built, so the
    configuration could only be silently dropped.
    """
    if isinstance(propagator, Propagator):
        if propagator_kwargs or n_iterations is not None:
            raise ValueError(
                "propagator is already an instance; configure it at "
                "construction instead of passing n_propagation_iterations "
                "or propagator_kwargs"
            )
        return propagator
    try:
        cls = PROPAGATORS[propagator]
    except KeyError:
        raise ValueError(
            f"unknown propagator {propagator!r}; registered: {sorted(PROPAGATORS)}"
        ) from None
    kwargs = dict(propagator_kwargs or {})
    accepted = inspect.signature(cls.__init__).parameters
    if n_iterations is not None and "max_iterations" in accepted:
        kwargs.setdefault("max_iterations", n_iterations)
    if safety is not None and "safety" in accepted:
        kwargs.setdefault("safety", safety)
    return cls(**kwargs)


def run_experiment(
    graph: Graph,
    estimator: BaseEstimator,
    label_fraction: float | None = None,
    n_seeds: int | None = None,
    n_propagation_iterations: int | None = None,
    safety: float = 0.5,
    seed=None,
    seed_indices: np.ndarray | None = None,
    gold_standard: np.ndarray | None = None,
    propagator: str | Propagator = "linbp",
    propagator_kwargs: dict | None = None,
) -> ExperimentResult:
    """Run one end-to-end experiment and return its summary.

    Parameters
    ----------
    graph:
        Fully labeled graph (ground truth is needed for scoring).
    estimator:
        Any :class:`~repro.core.estimators.base.BaseEstimator`.
    label_fraction / n_seeds:
        How many labels to reveal (exactly one of the two, unless explicit
        ``seed_indices`` are given).
    n_propagation_iterations, safety:
        Propagation parameters used for the final labeling.  When
        ``n_propagation_iterations`` is None (the default) each algorithm
        keeps its native sweep budget (LinBP: the paper's 10, harmonic:
        100, BP: 50); pass a value to override.  Both are only
        forwarded when the selected propagator's constructor accepts them.
    seed:
        Random seed for the stratified sampling.
    seed_indices:
        Explicit seed node indices; overrides the sampling when provided.
    gold_standard:
        Pre-computed gold-standard matrix (recomputed from the graph when
        omitted).
    propagator:
        Name of a registered propagation algorithm (any key of
        ``repro.propagation.PROPAGATORS``) or a ready
        :class:`~repro.propagation.engine.Propagator` instance.
    propagator_kwargs:
        Extra constructor arguments for the selected propagator (e.g.
        ``{"damping": 0.5}`` for BP).
    """
    rng = ensure_rng(seed)
    labels = graph.require_labels()
    if seed_indices is None:
        seed_indices = stratified_seed_indices(
            labels, fraction=label_fraction, n_seeds=n_seeds, rng=rng
        )
    else:
        seed_indices = np.asarray(seed_indices, dtype=np.int64)
    effective_fraction = (
        label_fraction
        if label_fraction is not None
        else seed_indices.shape[0] / max(1, graph.n_nodes)
    )
    partial_labels = graph.partial_labels(seed_indices)

    estimation = estimator.fit(graph, partial_labels)

    engine = resolve_propagator(
        propagator, propagator_kwargs, n_propagation_iterations, safety
    )
    propagation_start = time.perf_counter()
    propagation = engine.propagate(
        graph,
        partial_labels,
        compatibility=estimation.compatibility if engine.needs_compatibility else None,
    )
    propagation_seconds = time.perf_counter() - propagation_start
    predicted = propagation.labels

    if gold_standard is None:
        gold_standard = gold_standard_compatibility(graph)
    score = macro_accuracy(
        labels, predicted, graph.n_classes, exclude_indices=seed_indices
    )
    distance = compatibility_l2(estimation.compatibility, gold_standard)

    return ExperimentResult(
        method=estimation.method,
        label_fraction=float(effective_fraction),
        accuracy=score,
        l2_to_gold=distance,
        estimation_seconds=estimation.elapsed_seconds,
        propagation_seconds=propagation_seconds,
        compatibility=estimation.compatibility,
        n_seeds=int(seed_indices.shape[0]),
        details=estimation.details,
        propagator=engine.name,
        propagation_iterations=propagation.n_iterations,
        propagation_converged=propagation.converged,
    )

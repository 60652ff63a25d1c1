"""Shared estimator interface.

Every estimator answers the same question — "given a graph and a few seed
labels, what is the compatibility matrix ``H``?" — through the same
scikit-learn-flavoured API:

    result = Estimator(...).fit(graph, seed_labels)
    result.compatibility   # the estimated k x k matrix

``seed_labels`` is always a full-length vector with ``-1`` marking unlabeled
nodes, which is what :mod:`repro.eval.seeding` produces.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.graph.graph import Graph, one_hot_labels
from repro.utils.validation import check_labels

__all__ = ["EstimationResult", "BaseEstimator"]


@dataclass
class EstimationResult:
    """Outcome of a compatibility estimation.

    Attributes
    ----------
    compatibility:
        Estimated ``k x k`` compatibility matrix.
    method:
        Name of the estimator that produced it (e.g. ``"DCEr"``).
    elapsed_seconds:
        Wall-clock time of the whole ``fit`` call, including graph
        summarization — the quantity reported in the paper's Fig. 3b/6k.
    energy:
        Final value of the estimator's objective, when it has one.
    n_classes:
        Number of classes ``k``.
    details:
        Estimator-specific extras (restart energies, per-step timings, the
        observed statistics matrices, ...), useful for the benchmark harness.
    """

    compatibility: np.ndarray
    method: str
    elapsed_seconds: float
    n_classes: int
    energy: float | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.compatibility = np.asarray(self.compatibility, dtype=np.float64)


class BaseEstimator(abc.ABC):
    """Abstract base class for all compatibility estimators."""

    method_name = "base"

    def fit(self, graph: Graph, seed_labels: np.ndarray) -> EstimationResult:
        """Estimate ``H`` from ``graph`` and the partial labeling ``seed_labels``.

        Validates inputs, times the run, and delegates the actual work to the
        subclass hook :meth:`_estimate`.
        """
        if graph.n_classes is None:
            raise ValueError("graph must know its number of classes before estimation")
        seed_labels = check_labels(
            seed_labels, n_nodes=graph.n_nodes, n_classes=graph.n_classes
        )
        if np.all(seed_labels < 0) and self.requires_seed_labels:
            raise ValueError(
                f"{self.method_name} needs at least one labeled seed node"
            )
        explicit = one_hot_labels(seed_labels, graph.n_classes)
        start = time.perf_counter()
        with obs.span("estimator.fit", method=self.method_name):
            compatibility, energy, details = self._estimate(
                graph, seed_labels, explicit
            )
        elapsed = time.perf_counter() - start
        return EstimationResult(
            compatibility=compatibility,
            method=self.method_name,
            elapsed_seconds=elapsed,
            n_classes=graph.n_classes,
            energy=energy,
            details=details,
        )

    @property
    def requires_seed_labels(self) -> bool:
        """Whether the estimator needs at least one labeled node (most do)."""
        return True

    @abc.abstractmethod
    def _estimate(
        self,
        graph: Graph,
        seed_labels: np.ndarray,
        explicit_beliefs: sp.csr_matrix,
    ) -> tuple[np.ndarray, float | None, dict]:
        """Return ``(compatibility, final_energy_or_None, details_dict)``."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{self.__class__.__name__}()"

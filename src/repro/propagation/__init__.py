"""Label propagation algorithms on a unified engine.

Architecture
------------
All four algorithms (LinBP with and without echo cancellation, loopy BP,
harmonic functions) implement one interface,
:class:`~repro.propagation.engine.Propagator`:

* the **engine** (:mod:`repro.propagation.engine`) owns the shared,
  buffer-reusing fixed-point loop (:func:`~repro.propagation.engine.fixed_point_iterate`
  — configurable tolerance and iteration cap, residual history, optional
  float32 iterates), the uniform
  :class:`~repro.propagation.engine.PropagationResult` (beliefs, labels,
  iterations, convergence flag, residuals, wall time) and the string-keyed
  ``PROPAGATORS`` / ``ESTIMATORS`` registries;
* each **algorithm module** contributes a ``Propagator`` subclass plus a
  thin backwards-compatible functional wrapper (``linbp``,
  ``harmonic_functions``, ...);
* the **cached operator layer** (:class:`repro.graph.operators.GraphOperators`,
  exposed as ``Graph.operators``) memoizes the normalized adjacencies,
  degree vectors and the spectral radius each algorithm needs, so repeated
  runs on the same graph never recompute them — in particular LinBP's
  convergence scaling reuses one Lanczos spectral radius per graph;
* the **residual-push solver** (:mod:`repro.propagation.push`) gives LinBP
  its localized warm mode, the one the streaming and serving layers use.

Experiments, sweeps, benchmarks and the CLI all select algorithms by
registry name (``run_experiment(..., propagator="harmonic")``,
``repro experiment --propagator bp``).  Harmonic functions (Fig. 6i) and
loopy BP (the ablations) are batch baselines; the streaming and serving
layers run LinBP only.

Registering a new propagator
----------------------------
Subclass :class:`~repro.propagation.engine.Propagator`, implement ``_run``
and decorate — about ten lines::

    from repro.propagation.engine import (
        Propagator, fixed_point_iterate, register_propagator,
    )

    @register_propagator()
    class JacobiSmoother(Propagator):
        name = "jacobi"

        def _run(self, operators, prior, seed_labels, n_classes, H):
            priors = self._dense(prior)
            step = lambda F, out: np.asarray(operators.row_normalized @ F)
            beliefs, n_iter, ok, residuals = fixed_point_iterate(
                step, priors, self.max_iterations, self.tolerance)
            return beliefs, n_iter, ok, residuals, {}

After the import the algorithm is available everywhere by name:
``get_propagator("jacobi")``, ``run_experiment(..., propagator="jacobi")``
and ``repro experiment --propagator jacobi``.
"""

from repro.propagation.bp import BPResult, LoopyBPPropagator, beliefpropagation
from repro.propagation.convergence import (
    SpectralState,
    lanczos_spectral_state,
    linbp_scaling,
    spectral_radius,
)
from repro.propagation.engine import (
    ESTIMATORS,
    PROPAGATORS,
    PropagationResult,
    Propagator,
    estimator_names,
    fixed_point_iterate,
    get_estimator,
    get_propagator,
    propagator_names,
    register_estimator,
    register_propagator,
)
from repro.propagation.harmonic import HarmonicPropagator, harmonic_functions
from repro.propagation.linbp import (
    EchoLinBPPropagator,
    LinBPPropagator,
    LinBPResult,
    linbp,
    propagate_and_label,
)

__all__ = [
    "BPResult",
    "ESTIMATORS",
    "EchoLinBPPropagator",
    "HarmonicPropagator",
    "LinBPPropagator",
    "LinBPResult",
    "LoopyBPPropagator",
    "PROPAGATORS",
    "PropagationResult",
    "Propagator",
    "SpectralState",
    "beliefpropagation",
    "estimator_names",
    "fixed_point_iterate",
    "get_estimator",
    "get_propagator",
    "harmonic_functions",
    "lanczos_spectral_state",
    "linbp",
    "linbp_scaling",
    "propagate_and_label",
    "propagator_names",
    "register_estimator",
    "register_propagator",
    "spectral_radius",
]

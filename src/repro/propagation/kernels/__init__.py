"""Kernel backend layer: numba-jitted hot loops with a pure-numpy fallback.

The localized push solver (:mod:`repro.propagation.push`) and the dense
sweep paths funnel their per-nonzero work through four kernels —
``full_residual``, ``seed_residual_rows``, ``push_rounds``, ``fused_sweep``
— with two interchangeable implementations:

* ``numpy`` — vectorized reference kernels (:mod:`.reference`), always
  available, and the semantic ground truth;
* ``numba`` — jitted loops (:mod:`.jit`), bit-identical to the reference by
  construction (same accumulation order), selected automatically when numba
  imports.

Selection happens at import from the ``REPRO_KERNELS`` environment variable
(``numba`` | ``numpy`` | ``auto``, default ``auto``) and can be overridden
at runtime with :func:`set_backend`.  Asking for ``numba`` on a machine
without it is a hard error — silent fallback would invalidate benchmark
labels; ``auto`` falls back quietly.

Call :func:`warmup` once before timing anything: it runs every kernel on a
tiny problem so numba's JIT compilation never lands in a measured region.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "KernelBackendError",
    "active_backend",
    "available_backends",
    "set_backend",
    "get_kernels",
    "use_fused_dense",
    "make_fused_step",
    "warmup",
]

VALID_BACKENDS = ("auto", "numpy", "numba")

_active_name: str = "numpy"
_active_module = None
_warmed: set = set()


class KernelBackendError(RuntimeError):
    """Raised when an explicitly requested kernel backend cannot load."""


def _resolve(requested: str):
    from repro.propagation.kernels import jit, reference

    if requested == "numpy":
        return "numpy", reference
    if requested == "numba":
        if not jit.NUMBA_AVAILABLE:
            raise KernelBackendError(
                "REPRO_KERNELS=numba but numba is not importable in this "
                "environment; install numba or select REPRO_KERNELS=numpy"
            )
        return "numba", jit
    if requested == "auto":
        if jit.NUMBA_AVAILABLE:
            return "numba", jit
        return "numpy", reference
    raise KernelBackendError(
        f"unknown kernel backend {requested!r}; valid: {', '.join(VALID_BACKENDS)}"
    )


def set_backend(name: str | None = None) -> str:
    """Select the kernel backend; returns the resolved backend name.

    ``None`` re-reads ``REPRO_KERNELS`` (default ``auto``).  Explicitly
    requesting ``numba`` where it is missing raises
    :class:`KernelBackendError` instead of silently degrading.
    """
    global _active_name, _active_module
    requested = name if name is not None else os.environ.get("REPRO_KERNELS", "auto")
    requested = requested.strip().lower() or "auto"
    _active_name, _active_module = _resolve(requested)
    return _active_name


def active_backend() -> str:
    """Name of the backend currently answering kernel calls."""
    return _active_name


def available_backends() -> list[str]:
    """Backends that would actually load on this machine."""
    from repro.propagation.kernels import jit

    return ["numpy", "numba"] if jit.NUMBA_AVAILABLE else ["numpy"]


def get_kernels():
    """The active backend module (exposes the four kernel functions)."""
    return _active_module


def use_fused_dense() -> bool:
    """True when dense sweeps should route through the fused jit kernel.

    The numpy backend keeps the existing scipy-composed dense paths (their
    numerics are the library's historical reference); only the jitted
    backend substitutes the fused gather-scale-scatter loop.
    """
    return _active_name == "numba"


def make_fused_step(adjacency, rowscale, colscale, coupling, offset):
    """Build a ``step(current, out)`` callable running the fused sweep.

    Drop-in for the dense fixed-point loops: computes
    ``out = offset + diag(rowscale) W diag(colscale) current coupling``.
    All arrays must share one float dtype (float32 probe paths pass float32
    throughout).
    """
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    kernels = _active_module

    def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
        return kernels.fused_sweep(
            indptr, indices, data, rowscale, colscale, coupling,
            offset, current, out,
        )

    return step


def warmup(backend: str | None = None) -> str:
    """Exercise every kernel once on a tiny problem (JIT compile untimed).

    Compiles the jitted specializations for the float64 kernel suite and the
    float32 fused sweep; a no-op beyond the first call per backend.  Returns
    the active backend name.
    """
    if backend is not None:
        set_backend(backend)
    name = _active_name
    if name in _warmed:
        return name
    kernels = _active_module
    indptr = np.array([0, 1, 2], dtype=np.int32)
    indices = np.array([1, 0], dtype=np.int32)
    data = np.array([1.0, 1.0])
    ones = np.ones(2)
    beliefs = np.array([[0.5, 0.25], [0.25, 0.5]])
    offset = np.zeros((2, 2))
    coupling = np.eye(2) * 0.5
    for couple in (None, coupling):
        residual = kernels.full_residual(
            indptr, indices, data, ones, ones, couple, offset, beliefs.copy()
        )
        kernels.seed_residual_rows(
            indptr, indices, data, ones, ones, couple, offset,
            beliefs.copy(), np.array([0], dtype=np.int64), residual,
        )
        kernels.push_rounds(
            indptr, indices, data, ones * 0.25, ones, couple,
            beliefs.copy(), residual.copy(),
            np.array([0, 1], dtype=np.int64), 1e-10, 8, np.zeros(8),
        )
        kernels.fused_sweep(
            indptr, indices, data, ones, ones, couple, offset,
            beliefs.copy(), np.empty_like(beliefs),
        )
    kernels.fused_sweep(
        indptr, indices, data.astype(np.float32),
        ones.astype(np.float32), ones.astype(np.float32), None,
        offset.astype(np.float32), beliefs.astype(np.float32),
        np.empty((2, 2), dtype=np.float32),
    )
    _warmed.add(name)
    return name


set_backend()

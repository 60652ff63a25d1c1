"""Compatibility matrices and their free-parameter parametrization (Eq. 6).

A compatibility matrix ``H`` is a symmetric doubly-stochastic ``k x k``
matrix; entry ``H[c, d]`` is the relative frequency with which a node of
class ``c`` neighbors a node of class ``d``.  Symmetry plus stochasticity
leave ``k* = k(k-1)/2`` degrees of freedom, and all estimators in
:mod:`repro.core.estimators` optimize over exactly these ``k*`` parameters.

The parametrization follows the paper's Eq. 6: the free parameters are the
entries ``H[i, j]`` with ``i >= j`` restricted to the leading
``(k-1) x (k-1)`` block (row-major over the lower triangle of that block);
the last row and column are recovered from the stochasticity constraints.
Eq. 6 is affine, so :func:`parameter_map` stores it once per ``k`` as
``vec(H) = offset + basis @ (h - 1/k)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.matrix import is_doubly_stochastic, is_symmetric, sinkhorn_projection
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_square

__all__ = [
    "free_parameter_count",
    "free_parameter_indices",
    "parameter_map",
    "vector_to_matrix",
    "matrix_to_vector",
    "uniform_vector",
    "validate_compatibility",
    "skew_compatibility",
    "homophily_compatibility",
    "random_compatibility",
    "restart_initial_points",
    "heuristic_two_level",
]


def free_parameter_count(n_classes: int) -> int:
    """Number of free parameters ``k* = k(k-1)/2`` of a compatibility matrix."""
    check_positive(n_classes, "n_classes")
    return n_classes * (n_classes - 1) // 2


def free_parameter_indices(n_classes: int) -> list[tuple[int, int]]:
    """Row-major ``(i, j)`` positions of the free parameters in ``H``.

    Matches the paper's layout: the lower triangle (including the diagonal)
    of the leading ``(k-1) x (k-1)`` block, i.e.
    ``H[0,0], H[1,0], H[1,1], H[2,0], H[2,1], H[2,2], ...``.
    """
    return [
        (row, col)
        for row in range(n_classes - 1)
        for col in range(row + 1)
    ]


def uniform_vector(n_classes: int) -> np.ndarray:
    """The all-``1/k`` parameter vector the optimizations start from."""
    return np.full(free_parameter_count(n_classes), 1.0 / n_classes)


@lru_cache(maxsize=None)
def parameter_map(n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 6 as the affine map ``vec(H) = offset + basis @ (h - 1/k)``, built once per ``k``.

    Column ``p`` of the ``k^2 x k*`` ``basis`` is the flattened structure
    matrix ``∂H/∂h_p`` of Prop. 4.7: +1 at the parameter's position and its
    mirror, -1 on the last-row/column entries that absorb the stochasticity
    slack, and +1 per mirror image at the bottom-right corner.  ``offset``
    is the uniform ``1/k`` matrix, the image of the uniform parameter
    vector; centering there keeps the corner from cancelling ``2 - k``
    against a block sum of about ``k - 2``.  Both arrays are read-only.
    """
    check_positive(n_classes, "n_classes")
    last = n_classes - 1
    indices = free_parameter_indices(n_classes)
    basis = np.zeros((n_classes, n_classes, len(indices)))
    for parameter, (row, col) in enumerate(indices):
        for a, b in {(row, col), (col, row)}:
            basis[a, b, parameter] += 1.0
            basis[a, last, parameter] -= 1.0
            basis[last, b, parameter] -= 1.0
            basis[last, last, parameter] += 1.0
    offset = np.full(n_classes * n_classes, 1.0 / n_classes)
    basis = basis.reshape(n_classes * n_classes, -1)
    offset.setflags(write=False)
    basis.setflags(write=False)
    return offset, basis


def vector_to_matrix(parameters: np.ndarray, n_classes: int) -> np.ndarray:
    """Reconstruct the full ``k x k`` matrix ``H`` from its free parameters.

    Implements Eq. 6: free entries fill the leading block symmetrically, the
    last column/row absorb the stochasticity slack, and the bottom-right
    corner is ``2 - k + sum of the leading block``.  A ``(B, k*)`` stack of
    parameter vectors maps to a ``(B, k, k)`` stack of matrices.
    """
    parameters = np.asarray(parameters, dtype=np.float64)
    if parameters.ndim != 2:
        parameters = parameters.ravel()
    offset, basis = parameter_map(n_classes)
    if parameters.shape[-1] != basis.shape[1]:
        raise ValueError(
            f"expected {basis.shape[1]} free parameters for k={n_classes}, "
            f"got {parameters.shape[-1]}"
        )
    centered = parameters - 1.0 / n_classes
    if parameters.ndim == 2:
        # One product per row, so a row's matrix does not depend on the stack.
        flat = np.matmul(centered[:, None, :], basis.T)[:, 0]
        return (offset + flat).reshape(-1, n_classes, n_classes)
    return (offset + basis.dot(centered)).reshape(n_classes, n_classes)


def matrix_to_vector(matrix: np.ndarray) -> np.ndarray:
    """Extract the free-parameter vector ``h`` from a full matrix ``H``."""
    matrix = check_square(matrix, "compatibility")
    return matrix[np.tril_indices(matrix.shape[0] - 1)]


def validate_compatibility(
    matrix: np.ndarray, require_nonnegative: bool = True, tol: float = 1e-6
) -> np.ndarray:
    """Check that ``matrix`` is a valid compatibility matrix and return it.

    Raises ``ValueError`` if the matrix is not square, not symmetric, not
    doubly stochastic (within ``tol``), or has negative entries (unless
    ``require_nonnegative`` is False — estimated matrices can dip slightly
    below zero before projection).
    """
    matrix = check_square(matrix, "compatibility")
    if not is_symmetric(matrix, tol=tol):
        raise ValueError("compatibility matrix must be symmetric")
    if not is_doubly_stochastic(matrix, tol=tol):
        raise ValueError("compatibility matrix must be doubly stochastic")
    if require_nonnegative and matrix.min() < -tol:
        raise ValueError("compatibility matrix must be non-negative")
    return matrix


def skew_compatibility(n_classes: int, h: float = 3.0) -> np.ndarray:
    """The paper's skew-``h`` heterophilous compatibility matrix.

    For ``k = 3`` this reproduces the paper's example exactly:
    ``H = [[1, h, 1], [h, 1, 1], [1, 1, h]] / (2 + h)``, i.e. classes 0 and 1
    attract each other while class 2 is homophilous.  For general ``k`` we
    keep the same construction: classes are paired ``(0,1), (2,3), ...`` with
    affinity ``h`` (an odd trailing class is homophilous with affinity
    ``h``), every other entry is 1, and rows are normalized by ``h + k - 1``
    which makes the matrix symmetric and doubly stochastic.
    """
    check_positive(n_classes, "n_classes")
    check_positive(h, "h")
    matrix = np.ones((n_classes, n_classes), dtype=np.float64)
    for start in range(0, n_classes - 1, 2):
        matrix[start, start + 1] = h
        matrix[start + 1, start] = h
    if n_classes % 2 == 1:
        matrix[n_classes - 1, n_classes - 1] = h
    return matrix / (h + n_classes - 1)


def homophily_compatibility(n_classes: int, h: float = 3.0) -> np.ndarray:
    """Assortative compatibility matrix: affinity ``h`` on the diagonal."""
    check_positive(n_classes, "n_classes")
    check_positive(h, "h")
    matrix = np.ones((n_classes, n_classes), dtype=np.float64)
    np.fill_diagonal(matrix, h)
    return matrix / (h + n_classes - 1)


def random_compatibility(n_classes: int, seed=None, concentration: float = 1.0) -> np.ndarray:
    """Random symmetric doubly-stochastic matrix (for tests and ablations).

    Draws a symmetric non-negative matrix with Gamma-distributed entries and
    projects it onto the doubly-stochastic set with Sinkhorn scaling, then
    symmetrizes.  Larger ``concentration`` gives flatter matrices.
    """
    rng = ensure_rng(seed)
    raw = rng.gamma(shape=concentration, scale=1.0, size=(n_classes, n_classes)) + 1e-6
    raw = 0.5 * (raw + raw.T)
    scaled = sinkhorn_projection(raw)
    # Sinkhorn on a symmetric matrix converges to a symmetric limit, but the
    # alternating row/column sweeps can leave a tiny asymmetry; remove it.
    scaled = 0.5 * (scaled + scaled.T)
    return sinkhorn_projection(scaled)


def restart_initial_points(
    n_classes: int,
    n_restarts: int,
    delta: float | None = None,
    seed=None,
    include_uniform: bool = True,
) -> np.ndarray:
    """Initial parameter vectors for DCE with restarts (Section 4.8).

    The paper restarts from within the ``2^{k*}`` hyper-quadrants around the
    uninformative point ``1/k`` (each free parameter perturbed by ``±delta``
    with ``delta < 1/k^2``).  For small ``k`` we enumerate the quadrants; for
    larger ``k`` (where ``2^{k*}`` explodes) we sample sign patterns at
    random.  The uninformative all-``1/k`` point is always included first
    when ``include_uniform`` is set.
    """
    check_positive(n_restarts, "n_restarts")
    rng = ensure_rng(seed)
    k_star = free_parameter_count(n_classes)
    if delta is None:
        delta = 0.9 / (n_classes**2)
    base = uniform_vector(n_classes)
    points = []
    if include_uniform:
        points.append(base.copy())
    remaining = n_restarts - len(points)
    if remaining <= 0:
        return np.asarray(points[:n_restarts])
    if k_star <= 16 and 2**k_star <= 4 * remaining:
        signs = np.array(
            [[1 if (index >> bit) & 1 else -1 for bit in range(k_star)]
             for index in range(2**k_star)],
            dtype=np.float64,
        )
        rng.shuffle(signs)
    else:
        signs = rng.choice([-1.0, 1.0], size=(remaining, k_star))
    for row in signs[:remaining]:
        points.append(base + delta * row)
    return np.asarray(points)


def heuristic_two_level(
    pattern: np.ndarray, high: float | None = None, low: float | None = None
) -> np.ndarray:
    """The prior-work heuristic: approximate ``H`` with two values (App. E.1).

    ``pattern`` is a boolean/0-1 ``k x k`` matrix marking which entries are
    "high"; the heuristic assigns value ``high`` there and ``low`` elsewhere,
    then row-normalizes.  When ``high``/``low`` are omitted a generic 3:1
    ratio is used, mimicking "guessing the positions but not the magnitudes".
    """
    pattern = check_square(np.asarray(pattern, dtype=bool).astype(float), "pattern")
    n_classes = pattern.shape[0]
    if high is None:
        high = 3.0
    if low is None:
        low = 1.0
    if high <= low:
        raise ValueError(f"high ({high}) must exceed low ({low})")
    matrix = np.where(pattern > 0, high, low)
    matrix = 0.5 * (matrix + matrix.T)
    return sinkhorn_projection(matrix)

"""Energy functions and analytic gradients for compatibility estimation.

Each estimator in the paper minimizes a different energy over the free
parameters ``h`` of the compatibility matrix (Section 4):

* LCE  — ``E(H) = ||X - W X H||^2``                       (Eq. 8)
* MCE  — ``E(H) = ||H - P̂||^2``                           (Eq. 12)
* DCE  — ``E(H) = sum_l w_l ||H^l - P̂^(l)||^2``           (Eq. 13 / 14)

LCE's and MCE's energies are quadratic in ``H`` and their estimators
minimize them in closed form, so only DCE needs gradients.  The DCE
gradient with respect to the *full* matrix is Proposition 4.7's

    ``G = 2 sum_l w_l ( l H^(2l-1) - sum_{r=0}^{l-1} H^r P̂^(l) H^(l-r-1) )``

which :func:`dce_adjoint` evaluates in reverse mode over the powers of one
forward pass, and the gradient with respect to a free parameter is the
entry-wise dot product of ``G`` with that parameter's structure matrix ``S``
— the matrix ``∂H/∂h_p`` that records how the dependent last row/column move
when a free entry moves.  All of this operates on ``k x k`` matrices only,
which is why the optimization step is independent of the graph size.
"""

from __future__ import annotations

import numpy as np

from repro.core.compatibility import parameter_map, vector_to_matrix
from repro.utils.matrix import to_dense
from repro.utils.validation import check_positive, check_square

__all__ = [
    "dce_weights",
    "matrix_powers",
    "dce_forward",
    "dce_forward_batch",
    "dce_hessian_terms",
    "dce_energy",
    "dce_adjoint",
    "dce_matrix_gradient",
    "structure_matrix",
    "free_parameter_gradient",
    "dce_free_gradient",
    "mce_energy",
    "LCETerms",
    "lce_terms",
    "lce_energy",
]


# --------------------------------------------------------------------------- DCE
def dce_weights(max_length: int, scaling: float) -> np.ndarray:
    """Geometric weight vector ``w_l = scaling^(l-1)`` (the paper's lambda).

    ``scaling`` is the single hyperparameter of the whole framework; larger
    values emphasize longer (more numerous but individually weaker) paths,
    which is what rescues estimation in the extremely sparse-label regime.
    """
    check_positive(max_length, "max_length")
    if scaling <= 0:
        raise ValueError(f"scaling factor must be positive, got {scaling}")
    return np.asarray([scaling**exponent for exponent in range(max_length)])


def matrix_powers(matrix: np.ndarray, max_power: int) -> list[np.ndarray]:
    """``[H, H^2, ..., H^max_power]`` computed incrementally."""
    matrix = check_square(matrix, "matrix")
    check_positive(max_power, "max_power")
    powers = [matrix]
    for _ in range(1, max_power):
        # ndarray.dot: half the call overhead of ``@`` on k x k operands.
        powers.append(powers[-1].dot(matrix))
    return powers


def dce_forward(
    matrix: np.ndarray, statistics: list[np.ndarray], weights: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, float]:
    """One DCE forward pass: powers ``H^l``, stacked residuals ``H^l - P̂^(l)``, energy."""
    if len(statistics) != len(weights):
        raise ValueError(
            f"got {len(statistics)} statistics matrices but {len(weights)} weights"
        )
    powers = matrix_powers(matrix, len(statistics))
    residuals = np.subtract(powers, statistics)
    squares = (residuals * residuals).reshape(len(residuals), -1).sum(axis=1)
    return powers, residuals, float(np.dot(weights, squares))


def dce_forward_batch(
    matrices: np.ndarray, statistics: list[np.ndarray], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`dce_forward` for a ``(B, k, k)`` stack of matrices at once.

    Returns the powers and residuals as ``(B, l_max, k, k)`` arrays and the
    ``B`` energies; every stacked product works on one matrix at a time, so
    entry ``b`` does not depend on the rest of the stack.
    """
    if len(statistics) != len(weights):
        raise ValueError(
            f"got {len(statistics)} statistics matrices but {len(weights)} weights"
        )
    matrices = np.asarray(matrices, dtype=np.float64)
    powers = np.empty((len(matrices), len(weights)) + matrices.shape[1:])
    powers[:, 0] = matrices
    for length in range(1, len(weights)):
        np.matmul(powers[:, length - 1], matrices, out=powers[:, length])
    residuals = powers - np.asarray(statistics, dtype=np.float64)
    squares = (residuals * residuals).reshape(len(matrices), len(weights), -1).sum(axis=2)
    return powers, residuals, (squares * weights).sum(axis=1)


def dce_hessian_terms(
    powers: np.ndarray, residuals: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton and curvature terms of DCE's energy over the free parameters.

    DCE's energy is the sum of squares of ``r = sqrt(w_l) vec(H^l - P̂^(l))``.
    With ``S_p`` the structure matrices of Eq. 6, the derivatives of the
    powers follow the forward recurrence ``D_1 = S`` and
    ``D_l = D_(l-1) H + H^(l-1) S``; the Jacobian ``J`` stacks
    ``sqrt(w_l) vec(D_l)``, and each level adds ``w_l D_l D_l^T`` to
    ``J^T J`` and ``w_l D_l vec(R_l)`` to ``J^T r`` without forming ``J``.

    The curvature term ``C = sum_i r_i Hess(r_i)`` is what Gauss-Newton
    drops from ``Hess(E) / 2 = J^T J + C``.  Differentiating the recurrence
    again and sweeping the residuals backwards like :func:`dce_adjoint`,
    ``A_l = w_l R_l + A_(l+1) H^T``, gives
    ``C = sum_(l >= 2) (Q_l + Q_l^T)`` with ``Q_l[p, q] = <D_(l-1)(p), A_l S_q>``.

    ``powers`` and ``residuals`` are :func:`dce_forward_batch`'s
    ``(B, l_max, k, k)`` stacks.  Returns ``J^T J`` and ``C`` as
    ``(B, k*, k*)`` and ``J^T r`` as ``(B, k*)``; ``2 J^T r`` is the
    free-parameter gradient.
    """
    count, max_length, n_classes = powers.shape[:3]
    structure = parameter_map(n_classes)[1].T
    size = len(structure)
    # The S_p side by side, (k, k* k): X S is one product per matrix X.
    beside = structure.reshape(size, n_classes, n_classes).transpose(1, 0, 2).reshape(
        n_classes, -1
    )

    def times_structure(matrices: np.ndarray) -> np.ndarray:
        """``(B, k, k)`` -> ``(B, k*, k^2)``: row ``p`` is ``vec(M S_p)``."""
        product = np.matmul(matrices, beside).reshape(count, n_classes, size, n_classes)
        return product.transpose(0, 2, 1, 3).reshape(count, size, -1)

    adjoints = np.empty_like(residuals)
    adjoints[:, -1] = weights[-1] * residuals[:, -1]
    transposed = powers[:, 0].swapaxes(1, 2)
    for length in range(max_length - 2, -1, -1):
        adjoints[:, length] = weights[length] * residuals[:, length] + np.matmul(
            adjoints[:, length + 1], transposed
        )
    flat_residuals = residuals.reshape(count, max_length, -1, 1)
    derivative = np.broadcast_to(structure, (count,) + structure.shape)
    gram = weights[0] * np.matmul(derivative, derivative.swapaxes(1, 2))
    gradient = weights[0] * np.matmul(derivative, flat_residuals[:, 0])
    curvature = np.zeros_like(gram)
    for length in range(1, max_length):
        curvature += np.matmul(derivative, times_structure(adjoints[:, length]).swapaxes(1, 2))
        derivative = np.matmul(derivative.reshape(count, -1, n_classes), powers[:, 0])
        derivative = derivative.reshape(count, size, -1) + times_structure(powers[:, length - 1])
        gram += weights[length] * np.matmul(derivative, derivative.swapaxes(1, 2))
        gradient += weights[length] * np.matmul(derivative, flat_residuals[:, length])
    return gram, gradient[:, :, 0], curvature + curvature.swapaxes(1, 2)


def dce_energy(
    matrix: np.ndarray, statistics: list[np.ndarray], weights: np.ndarray
) -> float:
    """Distance-smoothed energy ``sum_l w_l ||H^l - P̂^(l)||^2`` (Eq. 13/14)."""
    return dce_forward(matrix, statistics, weights)[2]


def dce_adjoint(
    matrix: np.ndarray, residuals: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Full-matrix DCE gradient by reverse mode over a forward pass's residuals.

    Through the chain ``P_l = P_(l-1) H`` the adjoint of ``P_l`` is
    ``A_l = 2 w_l R_l + A_(l+1) H^T``, and the same sweep accumulates
    ``G = sum_l (H^T)^(l-1) A_l`` Horner-style, ``g_l = A_l + H^T g_(l+1)``,
    in ``2(l_max - 1)`` products of ``k x k`` matrices, for any ``H``.
    """
    transpose = matrix.T
    adjoint = gradient = 2.0 * float(weights[-1]) * residuals[-1]
    for index in range(len(residuals) - 2, -1, -1):
        adjoint = 2.0 * float(weights[index]) * residuals[index] + adjoint.dot(transpose)
        gradient = adjoint + transpose.dot(gradient)
    return gradient


def dce_matrix_gradient(
    matrix: np.ndarray, statistics: list[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """Gradient of the DCE energy with respect to the full matrix (Prop. 4.7)."""
    powers, residuals, _ = dce_forward(matrix, statistics, weights)
    return dce_adjoint(powers[0], residuals, weights)


# ----------------------------------------------------------- constrained gradient
def structure_matrix(n_classes: int, row: int, col: int) -> np.ndarray:
    """``∂H/∂H[row, col]`` for a free parameter of the Eq. 6 parametrization.

    ``row >= col`` and both lie in the leading ``(k-1) x (k-1)`` block.  This
    is the parameter's column of :func:`parameter_map`'s ``basis``.
    """
    if not (0 <= col <= row < n_classes - 1):
        raise ValueError(
            f"({row}, {col}) is not a free-parameter position for k={n_classes}"
        )
    column = parameter_map(n_classes)[1][:, row * (row + 1) // 2 + col]
    return column.reshape(n_classes, n_classes).copy()


def free_parameter_gradient(matrix_gradient: np.ndarray, n_classes: int) -> np.ndarray:
    """Chain the full-matrix gradient through Eq. 6: ``basis^T @ vec(G)``.

    Entry ``p`` is ``<S_p, G>``, the entry-wise product of ``G`` with free
    parameter ``p``'s structure matrix.
    """
    matrix_gradient = check_square(matrix_gradient, "matrix_gradient")
    return parameter_map(n_classes)[1].T.dot(matrix_gradient.ravel())


def dce_free_gradient(
    parameters: np.ndarray,
    n_classes: int,
    statistics: list[np.ndarray],
    weights: np.ndarray,
) -> np.ndarray:
    """DCE gradient with respect to the free-parameter vector ``h``."""
    matrix = vector_to_matrix(parameters, n_classes)
    matrix_gradient = dce_matrix_gradient(matrix, statistics, weights)
    return free_parameter_gradient(matrix_gradient, n_classes)


# --------------------------------------------------------------------------- MCE
def mce_energy(matrix: np.ndarray, observed: np.ndarray) -> float:
    """Myopic energy ``||H - P̂||^2`` (Eq. 12)."""
    difference = np.asarray(matrix) - np.asarray(observed)
    return float(np.sum(difference * difference))


# --------------------------------------------------------------------------- LCE
class LCETerms:
    """Precomputed sufficient statistics of the LCE energy (Eq. 8).

    With ``A = W X`` (an ``n x k`` matrix computed once),

        ``||X - A H||^2 = ||X||^2 - 2 tr(H^T A^T X) + tr(H^T A^T A H)``

    so only the two ``k x k`` matrices ``A^T A`` and ``A^T X`` and the scalar
    ``||X||^2`` are needed to minimize it — the same "summarize first,
    optimize later" trick DCE uses, applied to the convex LCE objective.
    """

    def __init__(self, gram: np.ndarray, cross: np.ndarray, label_norm: float) -> None:
        self.gram = np.asarray(gram, dtype=np.float64)
        self.cross = np.asarray(cross, dtype=np.float64)
        self.label_norm = float(label_norm)

    @property
    def n_classes(self) -> int:
        """Number of classes of the underlying problem."""
        return self.gram.shape[0]


def lce_terms(adjacency, labels_matrix) -> LCETerms:
    """Build the :class:`LCETerms` summary from the graph and seed labels."""
    dense_labels = to_dense(labels_matrix)
    propagated = np.asarray(adjacency @ dense_labels)
    gram = propagated.T @ propagated
    cross = propagated.T @ dense_labels
    label_norm = float(np.sum(dense_labels * dense_labels))
    return LCETerms(gram=gram, cross=cross, label_norm=label_norm)


def lce_energy(matrix: np.ndarray, terms: LCETerms) -> float:
    """LCE energy ``||X - W X H||^2`` evaluated from precomputed terms."""
    matrix = check_square(matrix, "compatibility")
    quadratic = float(np.trace(matrix.T @ terms.gram @ matrix))
    linear = float(np.trace(matrix.T @ terms.cross))
    return terms.label_norm - 2.0 * linear + quadratic

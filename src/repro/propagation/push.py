"""Residual-push localized solver for LinBP's linear fixed point ``F = B + W F C``.

The dense engine re-sweeps all ``nnz`` stored edges per iteration even when
a delta perturbed only a handful of rows.  This module solves the same
fixed point by *residual push* (Gauss–Southwell on the whole frontier):
keep ``R = B + W F C - F`` explicitly, and while any row's residual
max-norm exceeds ``epsilon``, absorb those rows' residuals into ``F`` and
scatter their one-hop consequences

    ``R[v] += w_uv * (R_pushed[u] C)``

to the neighbors only — per round the work is ``O(sum deg(frontier) * k)``,
not ``O(nnz * k)``.  Because the update is linear, pushing the whole
frontier simultaneously is exact, and when the loop drains the invariant
``max_u ||R[u]||_inf <= epsilon`` gives the same stopping guarantee as the
dense sweep's max-norm change test with ``tolerance = epsilon`` — which is
why warm localized solves match dense fixed points to the solver tolerance.

``W`` is the *symmetric* base CSR: symmetry makes column ``u`` of ``W``
available as CSR row ``u``, the property the scatter step relies on.  The
spec is built by :meth:`~repro.propagation.linbp.LinBPPropagator.linear_system`
(``C`` is the scaled centered compatibility ``epsilon H~``).

Residual initialization has two modes:

* **dense seeding** (no hint): one ``O(nnz k)`` pass computes ``R``
  everywhere — self-correcting against any stray residual (e.g. a refreshed
  LinBP epsilon perturbing every row a little), and still 1–2 orders of
  magnitude cheaper than iterating dense sweeps;
* **local seeding** (:class:`LocalizedHint`): exact residuals only on the
  delta-affected rows the caller names — valid when the previous solve
  converged, making everything off the hint provably sub-``epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernel behind ``csc @ dense``; None falls back to the
    # operator form (identical accumulation — scipy dispatches to the same
    # routine — just without the reusable output buffer).
    from scipy.sparse import _sparsetools as _csc_tools
except ImportError:  # pragma: no cover - defensive
    _csc_tools = None

__all__ = ["LinearFixedPoint", "LocalizedHint", "solve_localized"]


@dataclass
class LinearFixedPoint:
    """LinBP's fixed point in the ``F = B + W F C`` form.

    ``adjacency`` is the raw symmetric CSR ``W`` (float64); ``coupling`` is
    the ``k x k`` belief-coupling matrix ``C``; ``offset`` is the ``n x k``
    constant term ``B``.  ``details`` carries propagator extras (LinBP's
    ``scaling``) that must survive into the result for later warm resumes.
    """

    adjacency: sp.csr_matrix
    coupling: np.ndarray
    offset: np.ndarray
    details: dict = field(default_factory=dict)


@dataclass
class LocalizedHint:
    """Rows whose residual a delta may have disturbed.

    Everything *not* listed is trusted to already satisfy
    ``||R[row]||_inf <= epsilon`` — only safe when the previous solve
    converged and ``rows`` covers every term of ``B + W F C`` the delta
    changed (edge endpoints plus their neighbors, revealed nodes, added
    nodes).
    """

    rows: np.ndarray


def _rows_over(block: np.ndarray, epsilon: float) -> np.ndarray:
    """Boolean mask of rows whose max-norm exceeds ``epsilon``.

    Column-wise compare-and-or is ~10x faster than ``abs().max(axis=1)``
    for the narrow (few-class) blocks the push produces; the resulting row
    set is identical (pure comparisons, no floating point reordering).
    """
    magnitude = np.abs(block)
    over = magnitude[:, 0] > epsilon
    for column in range(1, block.shape[1]):
        np.logical_or(over, magnitude[:, column] > epsilon, out=over)
    return over


def _neighbor_positions(indptr, rows):
    """Flat CSR data positions of all neighbors of ``rows``, row-major.

    Returns ``(positions, source, total)`` where ``positions[i]`` indexes
    ``indices``/``data`` and ``source[i]`` is the index into ``rows`` that
    owns position ``i``.  This is the vectorized equivalent of the nested
    ``for u in rows: for p in indptr[u]:indptr[u+1]`` loop, preserving its
    exact element order.
    """
    starts = indptr[rows].astype(np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    bounds = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - bounds, counts) + np.arange(total)
    source = np.repeat(np.arange(rows.shape[0]), counts)
    return positions, source, total


def full_residual(matrix, coupling, offset, beliefs) -> np.ndarray:
    """Dense residual ``R = B + W F C - F`` in one O(nnz k) pass."""
    propagated = np.asarray(matrix @ beliefs) @ coupling
    propagated += offset
    propagated -= beliefs
    return propagated


def seed_residual_rows(matrix, coupling, offset, beliefs, rows, residual) -> int:
    """Exact residual on ``rows`` only; writes ``residual[rows]`` in place.

    Returns the number of stored nonzeros gathered (the touched-nnz cost of
    the seeding).  Rows outside ``rows`` are left untouched — the caller
    guarantees their residual is already below the push threshold.
    """
    if rows.shape[0] == 0:
        return 0
    positions, source, total = _neighbor_positions(matrix.indptr, rows)
    gathered = np.zeros((rows.shape[0], beliefs.shape[1]), dtype=np.float64)
    if total:
        cols = matrix.indices[positions]
        weighted = matrix.data[positions]
        np.add.at(gathered, source, weighted[:, None] * beliefs[cols])
    residual[rows] = offset[rows] + gathered @ coupling - beliefs[rows]
    return total


# A round whose frontier neighborhood exceeds this share of the stored
# nonzeros runs as one full row-major sweep instead of a sparse scatter:
# past that point slicing + transposed matmat costs more than the plain
# matvec it is trying to avoid.
DENSE_ROUND_NNZ_MULTIPLE = 4


def push_rounds(matrix, coupling, beliefs, residual, frontier, epsilon,
                max_rounds, history) -> tuple[int, bool, int, int]:
    """Run epsilon-gated residual-push rounds; mutates beliefs/residual.

    Each round pushes the whole frontier at once (exact by linearity of the
    fixed point): beliefs absorb the frontier residuals, which then scatter
    ``w_uv * (delta_u C)`` to every neighbor ``v`` — column ``u`` of the
    symmetric ``W`` being CSR row ``u``.  The next frontier is every
    touched row whose residual max-norm still exceeds ``epsilon``.

    Narrow frontiers scatter through a sparse matmat
    (``W[frontier].T @ push``); wide ones (neighborhood above
    ``nnz / DENSE_ROUND_NNZ_MULTIPLE``) run one dense sweep over the whole
    residual instead, so a saturated frontier never costs more than a
    dense iteration.

    ``history[r]`` records round ``r``'s max pushed residual (the analogue
    of the dense sweep's per-iteration max-norm change).  Returns
    ``(rounds, converged, touched_nnz, max_frontier)``.
    """
    indptr = matrix.indptr
    n = indptr.shape[0] - 1
    nnz = int(indptr[n])
    marked = np.zeros(n, dtype=bool)
    touched_nnz = 0
    max_frontier = 0
    rounds = 0
    update_buffer = None
    frontier = frontier.astype(np.int64, copy=False)
    while rounds < max_rounds and frontier.shape[0] > 0:
        if frontier.shape[0] > max_frontier:
            max_frontier = int(frontier.shape[0])
        pushed = residual[frontier]  # fancy indexing already copies
        history[rounds] = float(np.abs(pushed).max())
        beliefs[frontier] += pushed
        residual[frontier] = 0.0
        pushed = pushed @ coupling
        sub_nnz = int((indptr[frontier + 1] - indptr[frontier]).sum())
        rounds += 1
        if sub_nnz == 0:
            frontier = np.empty(0, dtype=np.int64)
            continue
        if DENSE_ROUND_NNZ_MULTIPLE * sub_nnz > nnz:
            # Wide frontier: one ordinary row-major sweep of the scatter
            # image is cheaper than slicing.  Every row's residual gets the
            # (possibly zero) update, and the next frontier rescans all
            # rows — rows never touched still hold their ≤ epsilon values.
            scatter = np.zeros_like(residual)
            scatter[frontier] = pushed
            residual += np.asarray(matrix @ scatter)
            touched_nnz += nnz
            frontier = np.flatnonzero(_rows_over(residual, epsilon))
            continue
        # Narrow frontier: the scatter is a sparse matmat — column u of the
        # symmetric W is CSR row u, so W[frontier].T @ push lands each
        # delta's mass on its neighbors, accumulated source-major in CSR
        # position order.
        sub = matrix[frontier]
        touched_nnz += sub_nnz
        marked[sub.indices] = True
        candidates = np.flatnonzero(marked)
        marked[candidates] = False
        if _csc_tools is not None:
            # csc_matvecs *accumulates* into its output, so a buffer whose
            # touched rows (exactly ``candidates``) are re-zeroed after the
            # gather replaces a full (n, k) alloc+memset every round.
            if update_buffer is None:
                update_buffer = np.zeros_like(residual)
            pushed = np.ascontiguousarray(pushed)
            _csc_tools.csc_matvecs(
                n, frontier.shape[0], pushed.shape[1],
                sub.indptr, sub.indices, sub.data,
                pushed.ravel(), update_buffer.ravel(),
            )
            gathered = update_buffer[candidates]
            update_buffer[candidates] = 0.0
        else:  # pragma: no cover - exercised only on exotic scipy builds
            gathered = np.asarray(sub.T @ pushed)[candidates]
        updated = residual[candidates] + gathered
        residual[candidates] = updated
        frontier = candidates[_rows_over(updated, epsilon)]
    return rounds, bool(frontier.shape[0] == 0), touched_nnz, max_frontier


def solve_localized(
    spec: LinearFixedPoint,
    initial: np.ndarray,
    epsilon: float,
    max_rounds: int,
    hint: LocalizedHint | None = None,
) -> tuple[np.ndarray, int, bool, list[float], dict]:
    """Drive ``initial`` to the fixed point of ``spec`` by residual push.

    Returns ``(beliefs, rounds, converged, residual_history, stats)`` with
    ``stats`` reporting frontier-size / touched-nnz figures
    (``touched_nnz`` counts stored nonzeros visited across residual seeding
    and all push rounds — the number a dense solve would put at
    ``iterations * nnz``).
    """
    adjacency = spec.adjacency
    n_nodes = adjacency.shape[0]
    matrix = sp.csr_matrix(
        (np.ascontiguousarray(adjacency.data, dtype=np.float64),
         adjacency.indices, adjacency.indptr),
        shape=adjacency.shape,
    )
    beliefs = np.ascontiguousarray(initial, dtype=np.float64)
    if beliefs.shape[0] != n_nodes:
        raise ValueError(
            f"initial beliefs have {beliefs.shape[0]} rows for a graph with "
            f"{n_nodes} nodes"
        )
    offset = np.ascontiguousarray(spec.offset, dtype=np.float64)
    coupling = np.ascontiguousarray(spec.coupling, dtype=np.float64)
    epsilon = float(epsilon)
    max_rounds = max(1, int(max_rounds))

    if hint is not None:
        rows = np.unique(np.asarray(hint.rows, dtype=np.int64).ravel())
        rows = rows[(rows >= 0) & (rows < n_nodes)]
        residual = np.zeros_like(beliefs)
        seeded_nnz = seed_residual_rows(
            matrix, coupling, offset, beliefs, rows, residual
        )
        candidates = rows
        seed_rows = int(rows.shape[0])
    else:
        residual = full_residual(matrix, coupling, offset, beliefs)
        seeded_nnz = int(adjacency.nnz)
        candidates = np.arange(n_nodes, dtype=np.int64)
        seed_rows = n_nodes

    if candidates.shape[0] and beliefs.shape[1]:
        over = np.abs(residual[candidates]).max(axis=1) > epsilon
        frontier = candidates[over]
    else:
        frontier = np.empty(0, dtype=np.int64)

    history = np.zeros(max_rounds, dtype=np.float64)
    rounds, converged, pushed_nnz, max_frontier = push_rounds(
        matrix, coupling, beliefs, residual, frontier, epsilon, max_rounds,
        history,
    )
    stats = {
        "localized": True,
        "seed_rows": seed_rows,
        "initial_frontier": int(frontier.shape[0]),
        "max_frontier": int(max_frontier),
        "touched_nnz": int(seeded_nnz) + int(pushed_nnz),
    }
    return beliefs, int(rounds), bool(converged), history[:rounds].tolist(), stats

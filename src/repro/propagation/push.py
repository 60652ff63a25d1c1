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
  Off-hint rows start from the previous solve's final residual when the
  caller carries it (``residual=``), and from zero otherwise.

A push keeps ``R`` exact as it goes, so its final residual describes the
returned beliefs; carrying it into the next hinted solve means the
sub-``epsilon`` leftovers of consecutive solves add up in ``R`` (and get
pushed once they cross ``epsilon``) instead of being forgotten each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# scipy's C kernels behind ``csr[rows]`` and ``csc @ dense``, called
# directly so a narrow round skips the operator wrappers' per-call cost.
from scipy.sparse import _sparsetools

from repro.utils.matrix import rows_over

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

    Everything *not* listed already satisfies ``||R[row]||_inf <= epsilon``
    — only safe when the previous solve converged and ``rows`` covers
    every term of ``B + W F C`` the delta changed (edge endpoints plus
    their neighbors, revealed nodes, added nodes).  When the previous
    solve's residual is carried in, those off-hint rows are *known* (they
    keep their exact value); without it they are trusted and seeded as
    zero.  ``rows`` may repeat ids; the hint keeps them sorted and unique.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.unique(np.asarray(self.rows, dtype=np.int64).ravel())


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
                max_rounds, history, visited) -> tuple[int, bool, int, int]:
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
    of the dense sweep's per-iteration max-norm change), and ``visited``
    (a boolean row mask) marks every frontier row: the only rows whose
    beliefs a round changes.  Returns
    ``(rounds, converged, touched_nnz, max_frontier)``.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    n = indptr.shape[0] - 1
    nnz = int(indptr[n])
    k = residual.shape[1]
    marked = np.zeros(n, dtype=bool)
    touched_nnz = 0
    max_frontier = 0
    rounds = 0
    update_buffer = None
    frontier = frontier.astype(np.int64, copy=False)
    # Rows move as one opaque item each: ``np.take`` gathers and ``np.put``
    # through a one-item-per-row view scatters them at about a third of the
    # cost of 2-D fancy indexing, with identical values.
    row_item = np.dtype((np.void, residual.itemsize * k))
    belief_rows = beliefs.view(row_item).ravel()
    residual_rows = residual.view(row_item).ravel()
    zero_row = np.zeros(1, dtype=row_item)
    while rounds < max_rounds and frontier.shape[0] > 0:
        if frontier.shape[0] > max_frontier:
            max_frontier = int(frontier.shape[0])
        pushed = np.take(residual, frontier, axis=0)
        history[rounds] = float(np.abs(pushed).max())
        absorbed = np.take(beliefs, frontier, axis=0)
        absorbed += pushed
        np.put(belief_rows, frontier, absorbed.view(row_item).ravel())
        np.put(residual_rows, frontier, zero_row)
        visited[frontier] = True
        pushed = pushed @ coupling
        sub_indptr = np.zeros(frontier.shape[0] + 1, dtype=indptr.dtype)
        np.cumsum(indptr[frontier + 1] - indptr[frontier], out=sub_indptr[1:])
        sub_nnz = int(sub_indptr[-1])
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
            frontier = np.flatnonzero(rows_over(residual, epsilon))
            continue
        # Narrow frontier: the scatter is a sparse matmat — column u of the
        # symmetric W is CSR row u, so W[frontier].T @ push lands each
        # delta's mass on its neighbors, accumulated source-major in CSR
        # position order.
        sub_indices = np.empty(sub_nnz, dtype=indices.dtype)
        sub_data = np.empty(sub_nnz, dtype=data.dtype)
        _sparsetools.csr_row_index(
            frontier.shape[0], frontier.astype(indptr.dtype, copy=False),
            indptr, indices, data, sub_indices, sub_data,
        )
        touched_nnz += sub_nnz
        marked[sub_indices] = True
        candidates = np.flatnonzero(marked)
        marked[candidates] = False
        # csc_matvecs *accumulates* into its output, so a buffer whose
        # touched rows (exactly ``candidates``) are re-zeroed after the
        # gather replaces a full (n, k) alloc+memset every round.
        if update_buffer is None:
            update_buffer = np.zeros_like(residual)
            update_rows = update_buffer.view(row_item).ravel()
        _sparsetools.csc_matvecs(
            n, frontier.shape[0], k, sub_indptr, sub_indices, sub_data,
            pushed.ravel(), update_buffer.ravel(),
        )
        updated = np.take(residual, candidates, axis=0)
        updated += np.take(update_buffer, candidates, axis=0)
        np.put(update_rows, candidates, zero_row)
        np.put(residual_rows, candidates, updated.view(row_item).ravel())
        frontier = candidates[rows_over(updated, epsilon)]
    return rounds, bool(frontier.shape[0] == 0), touched_nnz, max_frontier


def solve_localized(
    spec: LinearFixedPoint,
    initial: np.ndarray,
    epsilon: float,
    max_rounds: int,
    hint: LocalizedHint | None = None,
    residual: np.ndarray | None = None,
) -> tuple[np.ndarray, int, bool, list[float], dict]:
    """Drive ``initial`` to the fixed point of ``spec`` by residual push.

    ``residual`` is the previous solve's final residual, the off-hint
    starting point of a hinted solve (rows past its end, i.e. nodes added
    since, start at zero); it is not modified, and ignored without a hint.

    Returns ``(beliefs, rounds, converged, residual_history, stats)`` with
    ``stats`` reporting frontier-size / touched-nnz figures
    (``touched_nnz`` counts stored nonzeros visited across residual seeding
    and all push rounds — the number a dense solve would put at
    ``iterations * nnz``), ``residual``, the final ``n x k`` residual, and
    ``visited``, the rows the hint seeded or a push absorbed.
    """
    matrix = spec.adjacency
    n_nodes = matrix.shape[0]
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
    # Rows the solve may change: the seeded hint rows and every frontier.
    visited = np.zeros(n_nodes, dtype=bool)

    if hint is not None:
        rows = hint.rows
        rows = rows[np.searchsorted(rows, 0):np.searchsorted(rows, n_nodes)]
        if residual is None:
            residual = np.zeros_like(beliefs)
        else:  # one copy, zero-padded for nodes added since
            grow = np.zeros((n_nodes - residual.shape[0], beliefs.shape[1]))
            residual = np.concatenate((residual, grow))
        seeded_nnz = seed_residual_rows(
            matrix, coupling, offset, beliefs, rows, residual
        )
        visited[rows] = True
        candidates = rows
        seed_rows = int(rows.shape[0])
    else:
        residual = full_residual(matrix, coupling, offset, beliefs)
        seeded_nnz = int(matrix.nnz)
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
        history, visited,
    )
    stats = {
        "localized": True,
        "seed_rows": seed_rows,
        "initial_frontier": int(frontier.shape[0]),
        "max_frontier": int(max_frontier),
        "touched_nnz": int(seeded_nnz) + int(pushed_nnz),
        "residual": residual,
        "visited": np.flatnonzero(visited),
    }
    return beliefs, int(rounds), bool(converged), history[:rounds].tolist(), stats

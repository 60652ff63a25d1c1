"""Bitwise oracles for the localized stream step.

The residual push and the delta apply were rewritten for speed (row-item
gathers and scatters, a direct sub-CSR kernel, a row splice instead of a
global sparse sum) under a promise of *bitwise* identical results.  This
module keeps the straightforward push rounds as a reference and checks the
solver and a whole localized session against it, array for array.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

import repro.propagation.push as push
import repro.stream.delta as delta_module
from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.propagation.linbp import LinBPPropagator
from repro.propagation.push import (
    DENSE_ROUND_NNZ_MULTIPLE,
    LinearFixedPoint,
    LocalizedHint,
    full_residual,
    solve_localized,
)
from repro.stream import GraphDelta, StreamingSession
from repro.utils.matrix import rows_over


def reference_push_rounds(matrix, coupling, beliefs, residual, frontier, epsilon,
                          max_rounds, history, visited):
    """The push rounds with 2-D fancy indexing and scipy's row slicing."""
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
        pushed = residual[frontier]
        history[rounds] = float(np.abs(pushed).max())
        beliefs[frontier] += pushed
        residual[frontier] = 0.0
        visited[frontier] = True
        pushed = pushed @ coupling
        sub_nnz = int((indptr[frontier + 1] - indptr[frontier]).sum())
        rounds += 1
        if sub_nnz == 0:
            frontier = np.empty(0, dtype=np.int64)
            continue
        if DENSE_ROUND_NNZ_MULTIPLE * sub_nnz > nnz:
            scatter = np.zeros_like(residual)
            scatter[frontier] = pushed
            residual += np.asarray(matrix @ scatter)
            touched_nnz += nnz
            frontier = np.flatnonzero(rows_over(residual, epsilon))
            continue
        sub = matrix[frontier]
        touched_nnz += sub_nnz
        marked[sub.indices] = True
        candidates = np.flatnonzero(marked)
        marked[candidates] = False
        if update_buffer is None:
            update_buffer = np.zeros_like(residual)
        pushed = np.ascontiguousarray(pushed)
        _sparsetools.csc_matvecs(
            n, frontier.shape[0], pushed.shape[1],
            sub.indptr, sub.indices, sub.data,
            pushed.ravel(), update_buffer.ravel(),
        )
        gathered = update_buffer[candidates]
        update_buffer[candidates] = 0.0
        updated = residual[candidates] + gathered
        residual[candidates] = updated
        frontier = candidates[rows_over(updated, epsilon)]
    return rounds, bool(frontier.shape[0] == 0), touched_nnz, max_frontier


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_system(seed: int, n: int = 600, k: int = 3):
    """A sparse symmetric W, a contracting coupling C, offsets B and beliefs."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(3 * n, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    weights = rng.uniform(0.5, 1.5, pairs.shape[0])
    upper = sp.coo_matrix(
        (weights, (pairs.min(axis=1), pairs.max(axis=1))), shape=(n, n)
    ).tocsr()
    W = (upper + upper.T).tocsr()
    degrees = np.asarray(W.sum(axis=1)).ravel()
    C = rng.uniform(-0.4, 0.4, (k, k))
    C = (C + C.T) / 2 / (2.0 * degrees.max())
    B = rng.normal(0, 1, (n, k))
    beliefs = rng.normal(0, 1, (n, k))
    return W, C, B, beliefs


def scenario(seed: int, mode: str):
    """Dense-seeded solve, then (for hint modes) a hinted re-solve after a
    perturbation of a few offset rows; returns the last solve and its system."""
    W, C, B, beliefs = random_system(seed)
    epsilon = 1e-9
    spec = LinearFixedPoint(adjacency=W, coupling=C, offset=B)
    outcome = solve_localized(spec, beliefs, epsilon=epsilon, max_rounds=5000)
    if mode == "dense":
        return outcome, W, C, B
    rng = np.random.default_rng([seed, 1])
    for _ in range(3):
        rows = rng.choice(B.shape[0], 4, replace=False)
        B = B.copy()
        B[rows] += rng.normal(0, 1e-3, (rows.shape[0], B.shape[1]))
        spec = LinearFixedPoint(adjacency=W, coupling=C, offset=B)
        outcome = solve_localized(
            spec, outcome[0], epsilon=epsilon, max_rounds=5000,
            hint=LocalizedHint(rows=rows),
            residual=outcome[4]["residual"] if mode == "carried" else None,
        )
    return outcome, W, C, B


class TestPushRoundsOracle:
    @pytest.mark.parametrize("mode", ["dense", "hint", "carried"])
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_matches_reference_bitwise(self, monkeypatch, seed, mode):
        with monkeypatch.context() as patch:
            patch.setattr(push, "push_rounds", reference_push_rounds)
            expected, *_ = scenario(seed, mode)
        (beliefs, rounds, converged, history, stats), W, C, B = scenario(seed, mode)

        assert_bitwise(beliefs, expected[0])
        assert_bitwise(stats["residual"], expected[4]["residual"])
        assert (rounds, converged, history) == expected[1:4]
        for key in ("touched_nnz", "max_frontier", "initial_frontier", "seed_rows"):
            assert stats[key] == expected[4][key], key
        np.testing.assert_array_equal(stats["visited"], expected[4]["visited"])
        assert converged and rounds > 0
        if mode != "dense":
            # Hinted solves run narrow rounds: far less than a sweep per round.
            assert stats["touched_nnz"] < rounds * W.nnz

        if mode != "hint":
            # Without a carried residual the off-hint rows restart from
            # zero, so only the other two modes return the exact residual.
            exact = full_residual(W, C, B, beliefs)
            scale = max(np.abs(B).max(), np.abs(beliefs).max())
            assert np.abs(stats["residual"] - exact).max() <= 1e-12 * scale


def stream_deltas(graph, steps: int, seed: int) -> list[GraphDelta]:
    """Ten fresh edges per step, each removed again five steps later, plus reveals."""
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    present = set(map(tuple, graph.edge_list().tolist()))
    added: list[np.ndarray] = []
    deltas = []
    hidden = rng.permutation(n)
    for step in range(steps):
        fresh = []
        while len(fresh) < 10:
            u, v = sorted(rng.integers(0, n, 2).tolist())
            if u != v and (u, v) not in present:
                present.add((u, v))
                fresh.append((u, v))
        added.append(np.array(fresh))
        removed = None
        if step >= 5:
            removed = added[step - 5]
            present.difference_update(map(tuple, removed.tolist()))
        nodes = hidden[2 * step:2 * step + 2]
        deltas.append(GraphDelta(
            add_edges=added[-1], remove_edges=removed,
            reveal_nodes=nodes, reveal_labels=graph.labels[nodes],
        ))
    return deltas


def run_session(graph, deltas):
    compatibility = skew_compatibility(3, h=3.0)
    seeds = np.full(graph.n_nodes, -1, dtype=np.int64)
    labeled = np.random.default_rng(5).choice(graph.n_nodes, graph.n_nodes // 10, replace=False)
    seeds[labeled] = graph.labels[labeled]
    session = StreamingSession(
        graph.copy(), LinBPPropagator(max_iterations=300, tolerance=1e-7),
        compatibility=compatibility, seed_labels=seeds, localized=True,
    )
    session.propagate()
    steps = [session.step(delta) for delta in deltas]
    return session, steps


class TestLocalizedSessionOracle:
    def test_stream_matches_reference_bitwise(self, monkeypatch):
        graph = generate_graph(3000, 9000, skew_compatibility(3, h=3.0), seed=4)
        deltas = stream_deltas(graph, 30, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(push, "push_rounds", reference_push_rounds)
            # The global sparse sum is the apply path the splice replaced.
            patch.setattr(delta_module, "SPLICE_NNZ_PER_CHANGE", np.inf)
            expected, expected_steps = run_session(graph, deltas)
        session, steps = run_session(graph, deltas)

        assert session.mode_counts == expected.mode_counts
        assert session.mode_counts["localized"] >= 25
        assert [step.touched_nnz for step in steps] == [
            step.touched_nnz for step in expected_steps
        ]
        assert [step.n_edges for step in steps] == [step.n_edges for step in expected_steps]
        assert steps[-1].n_edges == session.graph.n_edges
        assert_bitwise(session.beliefs(), expected.beliefs())
        assert_bitwise(
            session.last_result.details["residual"],
            expected.last_result.details["residual"],
        )
        for name in ("indptr", "indices", "data"):
            assert_bitwise(
                getattr(session.graph.adjacency, name),
                getattr(expected.graph.adjacency, name),
            )
        np.testing.assert_array_equal(session.labels(), expected.labels())

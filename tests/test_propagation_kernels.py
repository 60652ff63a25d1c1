"""Tests for the residual-push solver behind localized propagation.

The residual-push solver reaches the dense fixed point of random linear
systems ``F = B + W F C``, with hint-seeded solves matching full-seeded
ones.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.propagation.push import LinearFixedPoint, LocalizedHint, solve_localized


def random_system(seed: int, n: int = 120, k: int = 3):
    """A random symmetric CSR, a contraction-safe coupling and offsets."""
    rng = np.random.default_rng(seed)
    density = 6.0 / n
    upper = sp.random(n, n, density=density, random_state=rng, format="coo")
    upper = sp.triu(upper, k=1).tocoo()
    # Weights go on the upper triangle *before* symmetrization — the push
    # scatter relies on W[u, v] == W[v, u] exactly.
    upper.data[:] = rng.uniform(0.5, 1.5, upper.nnz)
    W = (upper + upper.T).tocsr()
    degrees = np.asarray(np.abs(W).sum(axis=1)).ravel()
    # Gershgorin: rho(W) <= max degree and rho(C) <= 3 * 0.4 before the
    # division, so rho(W) * rho(C) <= 0.6 and the map F -> W F C contracts.
    C = rng.uniform(-0.4, 0.4, (k, k))
    C = (C + C.T) / 2 / (2.0 * degrees.max())
    B = rng.normal(0, 1, (n, k))
    beliefs = rng.normal(0, 1, (n, k))
    return W, C, B, beliefs


class TestSolveLocalized:
    @staticmethod
    def dense_fixed_point(W, C, B):
        from scipy.sparse.linalg import spsolve

        n, k = B.shape
        # Column-major vec: vec(W F C) = (C^T ⊗ W) vec(F).
        operator = sp.eye(n * k, format="csc") - sp.kron(C.T, W, format="csc")
        return spsolve(operator, B.ravel(order="F")).reshape((n, k), order="F")

    def test_converges_to_exact_solution(self):
        W, C, B, F0 = random_system(7)
        spec = LinearFixedPoint(adjacency=W, coupling=C, offset=B)
        beliefs, rounds, converged, history, stats = solve_localized(
            spec, F0, epsilon=1e-12, max_rounds=2000
        )
        exact = self.dense_fixed_point(W, C, B)
        assert converged
        assert np.abs(beliefs - exact).max() <= 1e-9
        assert stats["touched_nnz"] >= W.nnz  # dense seeding counts the pass
        assert len(history) == rounds

    def test_hint_seeded_matches_full_seeded(self):
        W, C, B, _ = random_system(8)
        spec = LinearFixedPoint(adjacency=W, coupling=C, offset=B)
        # Solve to convergence first.
        start = np.zeros_like(B)
        solved, _, converged, _, _ = solve_localized(
            spec, start, epsilon=1e-13, max_rounds=4000
        )
        assert converged
        # Perturb the offset on a few rows; re-solve with a hint naming them.
        rows = np.array([3, 17, 40], dtype=np.int64)
        B2 = B.copy()
        B2[rows] += 0.25
        spec2 = LinearFixedPoint(adjacency=W, coupling=C, offset=B2)
        hinted, _, hinted_converged, _, stats = solve_localized(
            spec2, solved.copy(), epsilon=1e-13, max_rounds=4000,
            hint=LocalizedHint(rows=rows),
        )
        dense, _, _, _, _ = solve_localized(
            spec2, solved.copy(), epsilon=1e-13, max_rounds=4000
        )
        assert hinted_converged
        assert stats["seed_rows"] == 3
        assert np.abs(hinted - dense).max() <= 1e-10

    def test_converged_input_returns_immediately(self):
        W, C, B, _ = random_system(9)
        spec = LinearFixedPoint(adjacency=W, coupling=C, offset=B)
        solved, _, _, _, _ = solve_localized(
            spec, np.zeros_like(B), epsilon=1e-12, max_rounds=4000
        )
        again, rounds, converged, _, stats = solve_localized(
            spec, solved.copy(), epsilon=1e-10, max_rounds=50,
            hint=LocalizedHint(rows=np.arange(10, dtype=np.int64)),
        )
        assert converged and rounds == 0
        assert stats["initial_frontier"] == 0
        np.testing.assert_array_equal(again, solved)

    def test_shape_mismatch_rejected(self):
        W, C, B, _ = random_system(10)
        spec = LinearFixedPoint(adjacency=W, coupling=C, offset=B)
        with pytest.raises(ValueError, match="rows"):
            solve_localized(spec, np.zeros((3, B.shape[1])), 1e-8, 10)

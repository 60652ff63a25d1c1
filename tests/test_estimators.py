"""Unit tests for the compatibility estimators (GS, LCE, MCE, DCE, DCEr, ...)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import minimize

from repro import obs
from repro.core.compatibility import (
    restart_initial_points,
    skew_compatibility,
    uniform_vector,
    vector_to_matrix,
)
from repro.core.energy import (
    dce_energy,
    dce_forward,
    dce_forward_batch,
    dce_free_gradient,
    dce_hessian_terms,
    dce_matrix_gradient,
    dce_weights,
    free_parameter_gradient,
    lce_energy,
    lce_terms,
    mce_energy,
)
from repro.core.estimators import (
    DCE,
    DCEr,
    EstimationResult,
    GoldStandard,
    HeuristicEstimator,
    HoldoutEstimator,
    LCE,
    MCE,
)
from repro.core.statistics import gold_standard_compatibility, observed_statistics
from repro.eval.metrics import compatibility_l2
from repro.eval.seeding import stratified_seed_labels
from repro.graph.generator import generate_graph
from repro.graph.graph import one_hot_labels
from repro.utils.matrix import is_doubly_stochastic, is_symmetric


def slsqp_reference(energy, matrix_gradient, k, start=None):
    """SLSQP's minimum of an energy of ``H`` over the free parameters, as ``(H, energy)``.

    The reference the closed-form and batched solvers are checked against:
    ``matrix_gradient`` is the gradient in the full matrix, chained through
    Eq. 6 by :func:`free_parameter_gradient`.
    """
    outcome = minimize(
        lambda point: energy(vector_to_matrix(point, k)),
        uniform_vector(k) if start is None else start,
        jac=lambda point: free_parameter_gradient(
            matrix_gradient(vector_to_matrix(point, k)), k
        ),
        method="SLSQP",
        tol=1e-9,
        options={"maxiter": 500},
    )
    return vector_to_matrix(outcome.x, k), float(outcome.fun)


@pytest.fixture(scope="module")
def graph():
    return generate_graph(2_000, 16_000, skew_compatibility(3, h=3.0), seed=42)


@pytest.fixture(scope="module")
def gold(graph):
    return gold_standard_compatibility(graph)


@pytest.fixture(scope="module")
def seed_labels_dense(graph):
    """10% labeled — enough for every estimator including MCE/LCE."""
    return stratified_seed_labels(graph.labels, fraction=0.10, rng=0)


@pytest.fixture(scope="module")
def seed_labels_sparse(graph):
    """0.5% labeled — the sparse regime where only DCE/DCEr succeed."""
    return stratified_seed_labels(graph.labels, fraction=0.005, rng=0)


class TestBaseBehaviour:
    def test_result_type_and_fields(self, graph, seed_labels_dense):
        result = MCE().fit(graph, seed_labels_dense)
        assert isinstance(result, EstimationResult)
        assert result.method == "MCE"
        assert result.n_classes == 3
        assert result.elapsed_seconds >= 0
        assert result.compatibility.shape == (3, 3)

    def test_requires_some_seed_labels(self, graph):
        empty = np.full(graph.n_nodes, -1, dtype=np.int64)
        with pytest.raises(ValueError, match="seed"):
            MCE().fit(graph, empty)

    def test_gold_standard_ignores_seed_labels(self, graph):
        empty = np.full(graph.n_nodes, -1, dtype=np.int64)
        result = GoldStandard().fit(graph, empty)
        assert result.compatibility.shape == (3, 3)

    def test_label_length_validation(self, graph, seed_labels_dense):
        with pytest.raises(ValueError):
            MCE().fit(graph, seed_labels_dense[:-1])

    def test_graph_without_classes_rejected(self):
        from repro.graph.graph import Graph

        unlabeled = Graph.from_edges([(0, 1)], n_nodes=2)
        with pytest.raises(ValueError, match="classes"):
            MCE().fit(unlabeled, np.array([0, -1]))


class TestGoldStandard:
    def test_matches_statistics_function(self, graph, gold):
        result = GoldStandard().fit(graph, np.full(graph.n_nodes, -1))
        np.testing.assert_allclose(result.compatibility, gold)

    def test_recovers_planted_matrix(self, gold):
        np.testing.assert_allclose(gold, skew_compatibility(3, h=3.0), atol=0.05)


class TestMCE:
    def test_accurate_with_dense_labels(self, graph, gold, seed_labels_dense):
        result = MCE().fit(graph, seed_labels_dense)
        assert compatibility_l2(result.compatibility, gold) < 0.15

    def test_output_is_symmetric_doubly_stochastic(self, graph, seed_labels_dense):
        result = MCE().fit(graph, seed_labels_dense)
        assert is_symmetric(result.compatibility, tol=1e-6)
        assert is_doubly_stochastic(result.compatibility, tol=1e-6)

    def test_projection_and_slsqp_agree(self, graph, seed_labels_dense):
        projected = MCE().fit(graph, seed_labels_dense)
        observed = projected.details["observed_statistics"]
        optimized, _ = slsqp_reference(
            lambda matrix: mce_energy(matrix, observed),
            lambda matrix: 2.0 * (matrix - observed),
            3,
        )
        np.testing.assert_allclose(projected.compatibility, optimized, atol=1e-4)

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_all_variants_run(self, graph, seed_labels_dense, variant):
        result = MCE(variant=variant).fit(graph, seed_labels_dense)
        assert np.all(np.isfinite(result.compatibility))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            MCE(variant=0)

    def test_poor_in_sparse_regime(self, graph, gold, seed_labels_sparse):
        # With ~10 labeled nodes MCE has almost no labeled edges to learn from.
        mce_error = compatibility_l2(
            MCE().fit(graph, seed_labels_sparse).compatibility, gold
        )
        dcer_error = compatibility_l2(
            DCEr(seed=0, n_restarts=6).fit(graph, seed_labels_sparse).compatibility, gold
        )
        assert dcer_error < mce_error


class TestLCE:
    def test_reasonable_with_dense_labels(self, graph, gold, seed_labels_dense):
        result = LCE().fit(graph, seed_labels_dense)
        uniform = np.full((3, 3), 1.0 / 3)
        assert compatibility_l2(result.compatibility, gold) < compatibility_l2(
            uniform, gold
        )

    def test_estimate_identifies_heterophily(self, graph, seed_labels_dense):
        estimated = LCE().fit(graph, seed_labels_dense).compatibility
        # The (0,1) affinity must dominate the (0,0) one, as planted.
        assert estimated[0, 1] > estimated[0, 0]

    def test_output_constraints(self, graph, seed_labels_dense):
        result = LCE().fit(graph, seed_labels_dense)
        assert is_symmetric(result.compatibility, tol=1e-6)
        np.testing.assert_allclose(result.compatibility.sum(axis=1), 1.0, atol=1e-6)

    def test_energy_reported(self, graph, seed_labels_dense):
        assert LCE().fit(graph, seed_labels_dense).energy >= 0

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_closed_form_matches_slsqp(self, k):
        graph = planted_graph(k, 3.0)
        seeds = stratified_seed_labels(graph.labels, fraction=0.02, rng=0)
        result = LCE().fit(graph, seeds)
        terms = lce_terms(graph.adjacency, one_hot_labels(seeds, k))
        slsqp_matrix, slsqp_energy = slsqp_reference(
            lambda matrix: lce_energy(matrix, terms),
            lambda matrix: 2.0 * (terms.gram @ matrix - terms.cross),
            k,
        )
        assert result.energy <= slsqp_energy * (1.0 + 1e-9)
        np.testing.assert_allclose(result.compatibility, slsqp_matrix, rtol=0, atol=1e-5)
        gradient = free_parameter_gradient(
            2.0 * (terms.gram @ result.compatibility - terms.cross), k
        )
        assert np.abs(gradient).max() <= 1e-8 * np.abs(2.0 * terms.cross).max()


class TestDCE:
    def test_accurate_with_dense_labels(self, graph, gold, seed_labels_dense):
        result = DCE().fit(graph, seed_labels_dense)
        assert compatibility_l2(result.compatibility, gold) < 0.12

    def test_accurate_in_moderately_sparse_regime(self, graph, gold):
        # At f=2% DCE from the uniform start already locks onto the planted
        # matrix; at extreme sparsity it can stay at the uniform saddle point,
        # which is exactly the failure mode DCEr's restarts address (tested
        # below in TestDCEr).
        seed_labels = stratified_seed_labels(graph.labels, fraction=0.02, rng=0)
        result = DCE().fit(graph, seed_labels)
        assert compatibility_l2(result.compatibility, gold) < 0.2

    def test_details_contain_statistics_and_timings(self, graph, seed_labels_dense):
        details = DCE(max_length=3).fit(graph, seed_labels_dense).details
        assert len(details["observed_statistics"]) == 3
        assert details["summarization_seconds"] >= 0
        assert details["optimization_seconds"] >= 0
        assert details["non_backtracking"] is True

    def test_max_length_one_close_to_mce(self, graph, seed_labels_dense):
        dce1 = DCE(max_length=1, scaling=1.0).fit(graph, seed_labels_dense)
        mce = MCE().fit(graph, seed_labels_dense)
        assert compatibility_l2(dce1.compatibility, mce.compatibility) < 0.1

    def test_non_backtracking_toggle(self, graph, gold, seed_labels_dense):
        nb = DCE(non_backtracking=True).fit(graph, seed_labels_dense)
        plain = DCE(non_backtracking=False).fit(graph, seed_labels_dense)
        assert compatibility_l2(nb.compatibility, gold) <= compatibility_l2(
            plain.compatibility, gold
        ) + 1e-6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DCE(max_length=0)
        with pytest.raises(ValueError):
            DCE(scaling=-1.0)
        with pytest.raises(ValueError):
            DCE(variant=5)


class TestDCEr:
    def test_at_least_as_good_as_dce_sparse(self, graph, gold, seed_labels_sparse):
        dce_error = compatibility_l2(
            DCE().fit(graph, seed_labels_sparse).compatibility, gold
        )
        dcer_error = compatibility_l2(
            DCEr(seed=1, n_restarts=8).fit(graph, seed_labels_sparse).compatibility, gold
        )
        assert dcer_error <= dce_error + 1e-6

    def test_restart_count_recorded(self, graph, seed_labels_dense):
        details = DCEr(seed=0, n_restarts=5).fit(graph, seed_labels_dense).details
        assert details["n_restarts"] == 5
        assert len(details["restart_energies"]) == 5

    def test_fit_spans_split_statistics_and_optimizer(self, graph, seed_labels_dense):
        records = []
        previous = obs.configure_tracing(records.append)
        try:
            traced = DCEr(seed=0, n_restarts=3).fit(graph, seed_labels_dense)
        finally:
            obs.configure_tracing(previous)
        spans = {record["name"]: record for record in records}
        for name in ("estimator.statistics", "estimator.optimize"):
            assert spans[name]["parent"] == spans["estimator.fit"]["span"]
        evaluations = traced.details["n_evaluations"]
        assert evaluations >= 3
        assert spans["estimator.optimize"]["attrs"] == {
            "n_restarts": 3, "n_evaluations": evaluations,
        }
        previous = obs.set_enabled(False)
        try:
            untraced = DCEr(seed=0, n_restarts=3).fit(graph, seed_labels_dense)
        finally:
            obs.set_enabled(previous)
        assert np.array_equal(traced.compatibility, untraced.compatibility)
        assert untraced.details["n_evaluations"] == evaluations

    def test_fit_is_bitwise_reproducible_and_reports_every_start(self):
        # The k=8 draw below leaves three starts in a higher local minimum.
        graph = planted_graph(8, 8.0)
        seeds = stratified_seed_labels(graph.labels, fraction=0.02, rng=1)
        estimator = DCEr(seed=0)
        records = []
        previous = obs.configure_tracing(records.append)
        try:
            traced = estimator.fit(graph, seeds)
        finally:
            obs.configure_tracing(previous)
        assert any(record["name"] == "estimator.optimize" for record in records)
        previous = obs.set_enabled(False)
        try:
            untraced = estimator.fit(graph, seeds)
        finally:
            obs.set_enabled(previous)
        for other in (untraced, estimator.fit(graph, seeds)):
            assert np.array_equal(other.compatibility, traced.compatibility)
            assert other.energy == traced.energy
            for key in ("restart_energies", "n_evaluations", "n_iterations", "converged"):
                assert other.details[key] == traced.details[key]
        # Entry i is start i's own final energy: a start's steps do not
        # depend on the other starts in the batch.
        energies = traced.details["restart_energies"]
        starts = restart_initial_points(8, 10, seed=0)
        singles = [DCE(initial=start).fit(graph, seeds) for start in starts]
        assert [single.energy for single in singles] == energies
        assert max(energies) > min(energies) * (1.0 + 1e-6)
        winner = int(np.argmin(energies))
        assert traced.energy == energies[winner]
        assert np.array_equal(traced.compatibility, singles[winner].compatibility)

    def test_winner_has_lowest_energy(self, graph, seed_labels_dense):
        result = DCEr(seed=0, n_restarts=5).fit(graph, seed_labels_dense)
        assert result.energy == pytest.approx(min(result.details["restart_energies"]))

    def test_reproducible_with_seed(self, graph, seed_labels_sparse):
        first = DCEr(seed=3, n_restarts=4).fit(graph, seed_labels_sparse)
        second = DCEr(seed=3, n_restarts=4).fit(graph, seed_labels_sparse)
        np.testing.assert_allclose(first.compatibility, second.compatibility, atol=1e-8)

    def test_estimate_close_to_gold_standard(self, graph, gold, seed_labels_dense):
        result = DCEr(seed=0, n_restarts=6).fit(graph, seed_labels_dense)
        assert compatibility_l2(result.compatibility, gold) < 0.1

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            DCEr(n_restarts=0)


@lru_cache(maxsize=None)
def planted_graph(k: int, h: float):
    return generate_graph(3_000, 30_000, skew_compatibility(k, h=h), seed=0)


# (k, h, label fraction, seed draw, whether some start ends in a higher
# local minimum than the best one)
ORACLE_CASES = [
    (2, 3.0, 0.01, 0, False),
    (2, 3.0, 0.01, 1, False),
    (3, 3.0, 0.005, 0, True),
    (3, 3.0, 0.005, 1, True),
    (5, 3.0, 0.02, 0, False),
    (5, 3.0, 0.02, 1, False),
    (8, 8.0, 0.02, 1, True),
    (8, 8.0, 0.05, 0, False),
]


class TestBatchedSolveOracle:
    """DCEr's batched Levenberg-Marquardt solve against one SLSQP run per start."""

    @pytest.mark.parametrize("k, h, fraction, draw, local_minimum", ORACLE_CASES)
    def test_matches_or_beats_slsqp_from_the_same_starts(
        self, k, h, fraction, draw, local_minimum
    ):
        graph = planted_graph(k, h)
        seeds = stratified_seed_labels(graph.labels, fraction=fraction, rng=draw)
        result = DCEr(seed=0).fit(graph, seeds)
        statistics = result.details["observed_statistics"]
        weights = result.details["weights"]
        slsqp_matrix, slsqp_energy = min(
            (
                slsqp_reference(
                    lambda matrix: dce_energy(matrix, statistics, weights),
                    lambda matrix: dce_matrix_gradient(matrix, statistics, weights),
                    k,
                    start,
                )
                for start in restart_initial_points(k, 10, seed=0)
            ),
            key=lambda reference: reference[1],
        )
        assert result.energy <= slsqp_energy * (1.0 + 1e-9)
        np.testing.assert_allclose(result.compatibility, slsqp_matrix, rtol=0, atol=1e-5)
        energies = result.details["restart_energies"]
        assert (max(energies) > result.energy * (1.0 + 1e-6)) == local_minimum

    @pytest.mark.parametrize("k, h, fraction, draw, local_minimum", ORACLE_CASES)
    def test_stacked_passes_match_each_start(self, k, h, fraction, draw, local_minimum):
        graph = planted_graph(k, h)
        seeds = stratified_seed_labels(graph.labels, fraction=fraction, rng=draw)
        statistics = observed_statistics(graph.adjacency, one_hot_labels(seeds, k), 5)
        weights = dce_weights(5, 10.0)
        starts = restart_initial_points(k, 10, seed=0)
        powers, residuals, energies = dce_forward_batch(
            vector_to_matrix(starts, k), statistics, weights
        )
        _, half_gradients, _ = dce_hessian_terms(powers, residuals, weights)
        for index, start in enumerate(starts):
            single_powers, single_residuals, single_energy = dce_forward(
                vector_to_matrix(start, k), statistics, weights
            )
            np.testing.assert_allclose(powers[index], single_powers, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                residuals[index], single_residuals, rtol=1e-12, atol=1e-15
            )
            assert energies[index] == pytest.approx(single_energy, rel=1e-12)
            gradient = dce_free_gradient(start, k, statistics, weights)
            assert np.linalg.norm(2.0 * half_gradients[index] - gradient) <= (
                1e-10 * np.linalg.norm(gradient)
            )


class TestHoldout:
    @pytest.fixture(scope="class")
    def small_graph(self):
        return generate_graph(400, 3_200, skew_compatibility(3, h=3.0), seed=13)

    def test_finds_reasonable_matrix(self, small_graph):
        seed_labels = stratified_seed_labels(small_graph.labels, fraction=0.15, rng=2)
        gold = gold_standard_compatibility(small_graph)
        result = HoldoutEstimator(seed=0, max_evaluations=80).fit(
            small_graph, seed_labels
        )
        uniform = np.full((3, 3), 1.0 / 3)
        assert compatibility_l2(result.compatibility, gold) < compatibility_l2(
            uniform, gold
        ) + 0.05

    def test_slower_than_dce(self, small_graph):
        seed_labels = stratified_seed_labels(small_graph.labels, fraction=0.15, rng=2)
        holdout = HoldoutEstimator(seed=0, max_evaluations=40).fit(
            small_graph, seed_labels
        )
        dce = DCE().fit(small_graph, seed_labels)
        assert holdout.elapsed_seconds > dce.elapsed_seconds

    def test_multiple_splits(self, small_graph):
        seed_labels = stratified_seed_labels(small_graph.labels, fraction=0.15, rng=2)
        result = HoldoutEstimator(n_splits=2, seed=0, max_evaluations=30).fit(
            small_graph, seed_labels
        )
        assert result.details["n_splits"] == 2

    def test_evaluation_counter(self, small_graph):
        seed_labels = stratified_seed_labels(small_graph.labels, fraction=0.15, rng=2)
        result = HoldoutEstimator(seed=0, max_evaluations=20).fit(
            small_graph, seed_labels
        )
        assert result.details["n_objective_evaluations"] > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HoldoutEstimator(n_splits=0)
        with pytest.raises(ValueError):
            HoldoutEstimator(holdout_fraction=0.0)


class TestHeuristic:
    def test_pattern_from_gold_standard(self, graph):
        result = HeuristicEstimator().fit(graph, np.full(graph.n_nodes, -1))
        estimated = result.compatibility
        # The planted pattern pairs classes (0,1) and makes class 2 homophilous.
        assert estimated[0, 1] > estimated[0, 0]
        assert estimated[2, 2] > estimated[2, 0]

    def test_explicit_pattern(self, graph):
        pattern = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=bool)
        result = HeuristicEstimator(pattern=pattern).fit(graph, np.full(graph.n_nodes, -1))
        assert result.compatibility[0, 0] > result.compatibility[0, 1]

    def test_two_level_structure(self, graph):
        estimated = HeuristicEstimator().fit(graph, np.full(graph.n_nodes, -1)).compatibility
        assert len(np.unique(np.round(estimated, 6))) <= 3

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            HeuristicEstimator(ratio=0.5)

"""Tests for the unified propagation engine, registries and wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compatibility import homophily_compatibility, skew_compatibility
from repro.core.estimators import GoldStandard
from repro.eval.experiment import run_experiment
from repro.eval.seeding import stratified_seed_indices
from repro.propagation import (
    ESTIMATORS,
    PROPAGATORS,
    LinBPPropagator,
    PropagationResult,
    Propagator,
    beliefpropagation,
    fixed_point_iterate,
    get_propagator,
    harmonic_functions,
    linbp,
    propagator_names,
    register_propagator,
)


EXPECTED_PROPAGATORS = {"linbp", "linbp_echo", "bp", "harmonic"}


@pytest.fixture()
def seeded(heterophily_graph):
    seeds = stratified_seed_indices(
        heterophily_graph.labels, fraction=0.1, rng=np.random.default_rng(0)
    )
    return seeds, heterophily_graph.partial_labels(seeds)


class TestRegistries:
    def test_exactly_four_algorithms_registered(self):
        assert set(PROPAGATORS) == EXPECTED_PROPAGATORS

    def test_propagator_names_sorted(self):
        assert propagator_names() == sorted(PROPAGATORS)

    def test_get_propagator_instantiates(self):
        for name in PROPAGATORS:
            instance = get_propagator(name)
            assert isinstance(instance, Propagator)
            assert instance.name == name

    def test_get_propagator_unknown_name(self):
        with pytest.raises(ValueError, match="registered"):
            get_propagator("definitely-not-an-algorithm")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_propagator("linbp")(LinBPPropagator)

    def test_estimators_registered_by_method_name(self):
        assert {"GS", "LCE", "MCE", "DCE", "DCEr", "Holdout"} <= set(ESTIMATORS)

    def test_registered_custom_propagator_usable(self, heterophily_graph, seeded):
        @register_propagator("test-identity")
        class IdentityPropagator(Propagator):
            name = "test-identity"

            def _run(self, operators, prior, seed_labels, n_classes, compatibility):
                return self._dense(prior), 0, True, [], {}

        try:
            seeds, partial = seeded
            result = get_propagator("test-identity").propagate(
                heterophily_graph, partial
            )
            # Identity propagation labels exactly the seed nodes.
            assert np.array_equal(
                result.labels[seeds], heterophily_graph.labels[seeds]
            )
            assert np.all(result.labels[np.setdiff1d(
                np.arange(heterophily_graph.n_nodes), seeds)] == -1)
        finally:
            PROPAGATORS.pop("test-identity")


class TestRoundTripThroughRunExperiment:
    @pytest.mark.parametrize("name", sorted(EXPECTED_PROPAGATORS))
    def test_every_registered_name_round_trips(self, heterophily_graph, name):
        result = run_experiment(
            heterophily_graph,
            GoldStandard(),
            label_fraction=0.1,
            seed=0,
            propagator=name,
        )
        assert result.propagator == name
        assert 0.0 <= result.accuracy <= 1.0
        assert result.propagation_seconds >= 0.0

    def test_propagator_instance_accepted(self, heterophily_graph):
        engine = LinBPPropagator(max_iterations=5)
        result = run_experiment(
            heterophily_graph,
            GoldStandard(),
            label_fraction=0.1,
            seed=0,
            propagator=engine,
        )
        assert result.propagator == "linbp"

    def test_propagator_kwargs_forwarded(self, heterophily_graph):
        result = run_experiment(
            heterophily_graph,
            GoldStandard(),
            label_fraction=0.1,
            seed=0,
            propagator="bp",
            propagator_kwargs={"damping": 0.5},
        )
        assert result.propagator == "bp"

    def test_native_iteration_budget_preserved(self, homophily_graph):
        # Harmonic's native cap is 100 sweeps; run_experiment must not force
        # LinBP's 10 onto it (which silently returned unconverged baselines).
        result = run_experiment(
            homophily_graph,
            GoldStandard(),
            label_fraction=0.1,
            seed=0,
            propagator="harmonic",
        )
        assert result.propagation_converged or result.propagation_iterations == 100
        assert result.propagation_iterations > 10

    def test_iteration_override_still_applies(self, homophily_graph):
        result = run_experiment(
            homophily_graph,
            GoldStandard(),
            label_fraction=0.1,
            seed=0,
            propagator="harmonic",
            n_propagation_iterations=3,
        )
        assert result.propagation_iterations <= 3

    def test_instance_with_config_rejected(self, heterophily_graph):
        with pytest.raises(ValueError, match="already an instance"):
            run_experiment(
                heterophily_graph,
                GoldStandard(),
                label_fraction=0.1,
                seed=0,
                propagator=LinBPPropagator(),
                n_propagation_iterations=50,
            )
        with pytest.raises(ValueError, match="already an instance"):
            run_experiment(
                heterophily_graph,
                GoldStandard(),
                label_fraction=0.1,
                seed=0,
                propagator=LinBPPropagator(),
                propagator_kwargs={"safety": 0.4},
            )

    def test_bp_tolerates_estimated_negative_entries(self, heterophily_graph):
        # MCE's doubly-stochastic projection can emit small negative entries
        # at sparse fractions; the engine-path BP clips instead of crashing.
        from repro.core.estimators import MCE

        result = run_experiment(
            heterophily_graph,
            MCE(),
            label_fraction=0.03,
            seed=0,
            propagator="bp",
        )
        assert 0.0 <= result.accuracy <= 1.0

    def test_legacy_bp_still_rejects_negative_potential(self, triangle_graph):
        with pytest.raises(ValueError, match="non-negative"):
            beliefpropagation(
                triangle_graph.adjacency,
                triangle_graph.label_matrix(),
                np.array([[0.5, -0.5, 1.0], [-0.5, 1.0, 0.5], [1.0, 0.5, -0.5]]),
            )

    def test_linbp_matches_legacy_default(self, heterophily_graph):
        by_name = run_experiment(
            heterophily_graph, GoldStandard(), label_fraction=0.1, seed=4
        )
        explicit = run_experiment(
            heterophily_graph,
            GoldStandard(),
            label_fraction=0.1,
            seed=4,
            propagator="linbp",
        )
        assert by_name.accuracy == explicit.accuracy


class TestBackwardsCompatibleWrappers:
    """Old functional APIs return results identical to the new classes."""

    def test_linbp_wrapper_equals_class(self, heterophily_graph, seeded):
        seeds, partial = seeded
        prior = heterophily_graph.partial_label_matrix(seeds)
        compatibility = skew_compatibility(3, h=3.0)
        legacy = linbp(heterophily_graph.adjacency, prior, compatibility)
        modern = LinBPPropagator().propagate(
            heterophily_graph, compatibility=compatibility, prior_beliefs=prior
        )
        np.testing.assert_array_equal(legacy.beliefs, modern.beliefs)
        np.testing.assert_array_equal(legacy.labels, modern.labels)
        assert legacy.scaling == pytest.approx(modern.details["scaling"])
        assert legacy.n_iterations == modern.n_iterations

    def test_harmonic_wrapper_equals_class(self, homophily_graph):
        seeds = np.arange(0, homophily_graph.n_nodes, 7)
        partial = homophily_graph.partial_labels(seeds)
        legacy = harmonic_functions(homophily_graph.adjacency, partial, 3)
        modern = get_propagator("harmonic").propagate(homophily_graph, partial)
        np.testing.assert_array_equal(legacy, modern.labels)

    def test_bp_wrapper_equals_class(self, heterophily_graph, seeded):
        seeds, partial = seeded
        prior = heterophily_graph.partial_label_matrix(seeds)
        compatibility = skew_compatibility(3, h=3.0)
        legacy = beliefpropagation(
            heterophily_graph.adjacency, prior, compatibility, n_iterations=5
        )
        modern = get_propagator("bp", max_iterations=5).propagate(
            heterophily_graph, compatibility=compatibility, prior_beliefs=prior
        )
        np.testing.assert_array_equal(legacy.beliefs, modern.beliefs)
        np.testing.assert_array_equal(legacy.labels, modern.labels)


class TestPropagationResult:
    def test_result_fields(self, heterophily_graph, seeded):
        seeds, partial = seeded
        result = get_propagator("linbp").propagate(
            heterophily_graph, partial, compatibility=skew_compatibility(3, h=3.0)
        )
        assert isinstance(result, PropagationResult)
        assert result.beliefs.shape == (heterophily_graph.n_nodes, 3)
        assert result.labels.shape == (heterophily_graph.n_nodes,)
        assert result.n_iterations == len(result.residuals)
        assert result.elapsed_seconds >= 0.0
        assert result.propagator == "linbp"
        assert "scaling" in result.details

    def test_residual_history_is_decreasing_overall(self, homophily_graph):
        seeds = np.arange(0, homophily_graph.n_nodes, 5)
        partial = homophily_graph.partial_labels(seeds)
        result = get_propagator("harmonic").propagate(homophily_graph, partial)
        assert result.converged
        assert result.residuals[-1] < result.residuals[0]
        assert result.residuals[-1] < 1e-8

    def test_seed_labels_clamped(self, heterophily_graph, seeded):
        seeds, partial = seeded
        for name in ("linbp", "harmonic"):
            result = get_propagator(name).propagate(
                heterophily_graph, partial,
                compatibility=skew_compatibility(3, h=3.0),
            )
            np.testing.assert_array_equal(
                result.labels[seeds], heterophily_graph.labels[seeds]
            )

    def test_missing_compatibility_rejected(self, heterophily_graph, seeded):
        _, partial = seeded
        with pytest.raises(ValueError, match="compatibility"):
            get_propagator("linbp").propagate(heterophily_graph, partial)

    def test_missing_seeds_and_priors_rejected(self, heterophily_graph):
        with pytest.raises(ValueError, match="seed_labels or prior_beliefs"):
            get_propagator("linbp").propagate(
                heterophily_graph, compatibility=skew_compatibility(3)
            )


class TestFixedPointIterate:
    def test_converges_on_linear_contraction(self):
        target = np.array([2.0, -1.0])

        def step(current, out):
            np.multiply(current, 0.5, out=out)
            out += 0.5 * target
            return out

        final, iterations, converged, residuals = fixed_point_iterate(
            step, np.zeros(2), max_iterations=200, tolerance=1e-12
        )
        assert converged
        np.testing.assert_allclose(final, target, atol=1e-10)
        assert iterations == len(residuals)

    def test_respects_iteration_cap(self):
        def step(current, out):
            np.add(current, 1.0, out=out)
            return out

        _, iterations, converged, _ = fixed_point_iterate(
            step, np.zeros(3), max_iterations=7, tolerance=1e-12
        )
        assert iterations == 7
        assert not converged

    def test_adopts_freshly_allocated_arrays(self):
        def step(current, out):
            return current * 0.25

        final, _, converged, _ = fixed_point_iterate(
            step, np.ones(4), max_iterations=200, tolerance=1e-14
        )
        assert converged
        np.testing.assert_allclose(final, 0.0, atol=1e-12)

    def test_empty_iterate(self):
        def step(current, out):
            return out

        final, iterations, converged, _ = fixed_point_iterate(
            step, np.zeros((0, 3)), max_iterations=5, tolerance=1e-8
        )
        assert converged
        assert iterations == 1
        assert final.shape == (0, 3)


class TestSweepPropagatorPassthrough:
    def test_sweep_with_alternate_propagator(self, homophily_graph):
        from repro.eval.sweeps import sweep_label_sparsity

        result = sweep_label_sparsity(
            homophily_graph,
            {"GS": GoldStandard()},
            fractions=[0.1],
            n_repetitions=1,
            seed=0,
            propagator="harmonic",
        )
        assert len(result.records) == 1
        assert result.records[0].propagator == "harmonic"


class TestWarmStart:
    """LinBP's warm-start contract: same fixed point, resumable."""

    @pytest.fixture()
    def problem(self, heterophily_graph):
        seeds = stratified_seed_indices(
            heterophily_graph.labels, fraction=0.1, rng=np.random.default_rng(7)
        )
        return heterophily_graph, heterophily_graph.partial_labels(seeds)

    def test_warm_restart_reaches_the_same_fixed_point(self, problem):
        graph, partial = problem
        compatibility = skew_compatibility(3, h=3.0)
        engine = get_propagator("linbp", max_iterations=300, tolerance=1e-12)
        cold = engine.propagate(graph, partial, compatibility=compatibility)
        warm = engine.propagate(
            graph, partial, compatibility=compatibility, warm_start=cold
        )
        np.testing.assert_allclose(warm.beliefs, cold.beliefs, atol=1e-10)
        # Resuming from the fixed point must converge almost immediately.
        assert warm.n_iterations <= 2

    def test_warm_start_accepts_bare_beliefs(self, problem):
        graph, partial = problem
        compatibility = skew_compatibility(3, h=3.0)
        engine = get_propagator("linbp", max_iterations=300, tolerance=1e-12)
        cold = engine.propagate(graph, partial, compatibility=compatibility)
        warm = engine.propagate(
            graph, partial, compatibility=compatibility, warm_start=cold.beliefs
        )
        np.testing.assert_allclose(warm.beliefs, cold.beliefs, atol=1e-8)

    def test_warm_start_shape_mismatch_rejected(self, problem):
        graph, partial = problem
        engine = get_propagator("linbp")
        with pytest.raises(ValueError, match="warm-start beliefs"):
            engine.propagate(
                graph, partial,
                compatibility=skew_compatibility(3, h=3.0),
                warm_start=np.zeros((3, 3)),
            )

    @pytest.mark.parametrize(
        "localized", [None, True, "hint"],
        ids=["dense", "localized", "localized-hint"],
    )
    def test_warm_start_across_a_scaling_rung_matches_cold(
        self, problem, localized
    ):
        """Resuming from a result solved one ladder rung away in epsilon.

        A growing radius eventually crosses a rung of the scaling ladder,
        so the warm result's ``details["scaling"]`` differs from the
        current epsilon.  The dense resume simply iterates to the new fixed
        point; the localized resume absorbs the drift with its Neumann
        series, after which a local hint must still be trustworthy.
        """
        from repro.graph.operators import operators_for
        from repro.propagation.convergence import quantize_radius
        from repro.propagation.push import LocalizedHint

        graph, partial = problem
        compatibility = skew_compatibility(3, h=3.0)
        engine = get_propagator("linbp", max_iterations=500, tolerance=1e-9)
        cold = engine.propagate(graph, partial, compatibility=compatibility)
        radius = quantize_radius(operators_for(graph).spectral_radius())
        next_rung = quantize_radius(np.nextafter(radius, np.inf))
        assert next_rung > radius
        previous_scaling = cold.details["scaling"] * radius / next_rung
        previous = get_propagator(
            "linbp", max_iterations=500, tolerance=1e-9,
            scaling=previous_scaling,
        ).propagate(graph, partial, compatibility=compatibility)
        assert previous.details["scaling"] == previous_scaling
        assert np.abs(previous.beliefs - cold.beliefs).max() > 1e-6

        if localized == "hint":
            localized = LocalizedHint(rows=np.arange(5))
        warm = engine.propagate(
            graph, partial, compatibility=compatibility,
            warm_start=previous, localized=localized,
        )
        assert warm.converged
        assert warm.details["scaling"] == cold.details["scaling"]
        np.testing.assert_allclose(warm.beliefs, cold.beliefs, atol=1e-6)


class TestLanczosSpectralState:
    def test_matches_batch_spectral_radius(self, heterophily_graph):
        from repro.propagation import lanczos_spectral_state, spectral_radius

        adjacency = heterophily_graph.adjacency
        state = lanczos_spectral_state(adjacency, max_steps=200, tolerance=1e-12)
        exact = spectral_radius(adjacency, seed=0)
        assert state.radius == pytest.approx(exact, rel=1e-8)
        assert state.vector.shape == (heterophily_graph.n_nodes,)
        assert np.linalg.norm(state.vector) == pytest.approx(1.0)

    def test_warm_restart_converges_in_few_steps(self, heterophily_graph):
        from repro.propagation import lanczos_spectral_state

        adjacency = heterophily_graph.adjacency
        anchor = lanczos_spectral_state(adjacency, max_steps=200, tolerance=1e-12)
        warm = lanczos_spectral_state(
            adjacency, v0=anchor.vector, max_steps=60, tolerance=1e-9
        )
        assert warm.radius == pytest.approx(anchor.radius, rel=1e-9)
        assert warm.n_steps <= 5

    def test_empty_matrix(self):
        from repro.propagation import lanczos_spectral_state
        import scipy.sparse as sp

        state = lanczos_spectral_state(sp.csr_matrix((0, 0)))
        assert state.radius == 0.0

    def test_zero_matrix(self):
        from repro.propagation import lanczos_spectral_state
        import scipy.sparse as sp

        state = lanczos_spectral_state(sp.csr_matrix((4, 4)), max_steps=10)
        assert state.radius == 0.0

    def test_wrong_v0_length_rejected(self, heterophily_graph):
        from repro.propagation import lanczos_spectral_state

        with pytest.raises(ValueError, match="v0"):
            lanczos_spectral_state(heterophily_graph.adjacency, v0=np.ones(3))

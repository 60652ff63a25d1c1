"""Unit tests for the declarative run/grid spec layer."""

from __future__ import annotations

import json

import pytest

from repro.runner.spec import GridSpec, RunSpec, build_graph, content_hash


def small_graph_config(**overrides) -> dict:
    config = {
        "kind": "generate",
        "name": "spec-test",
        "n_nodes": 120,
        "n_edges": 600,
        "n_classes": 3,
        "h": 3.0,
        "seed": 5,
    }
    config.update(overrides)
    return config


@pytest.fixture()
def grid() -> GridSpec:
    return GridSpec(
        graphs=[small_graph_config()],
        estimators=["MCE", {"name": "DCE", "kwargs": {"max_length": 3}}],
        label_fractions=[0.05, 0.1],
        propagators=["linbp", "harmonic"],
        n_repetitions=2,
        base_seed=11,
        name="spec-test-grid",
    )


class TestRunSpec:
    def test_content_hash_is_stable(self):
        spec_a = RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1)
        spec_b = RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1)
        assert spec_a.content_hash == spec_b.content_hash
        assert len(spec_a.content_hash) == 64

    def test_content_hash_covers_every_field(self):
        base = RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1)
        variants = [
            RunSpec(graph=small_graph_config(seed=6), estimator="MCE", label_fraction=0.1),
            RunSpec(graph=small_graph_config(), estimator="LCE", label_fraction=0.1),
            RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.2),
            RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1,
                    repetition=1),
            RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1,
                    propagator="harmonic"),
            RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1,
                    base_seed=99),
        ]
        hashes = {spec.content_hash for spec in variants}
        assert base.content_hash not in hashes
        assert len(hashes) == len(variants)

    def test_hash_independent_of_dict_key_order(self):
        shuffled = dict(reversed(list(small_graph_config().items())))
        spec_a = RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1)
        spec_b = RunSpec(graph=shuffled, estimator="MCE", label_fraction=0.1)
        assert spec_a.content_hash == spec_b.content_hash

    def test_run_seed_derives_from_hash(self):
        spec = RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.1)
        twin = RunSpec.from_dict(spec.to_dict())
        assert spec.run_seed == twin.run_seed
        assert 0 <= spec.run_seed < 2**32
        other = RunSpec(graph=small_graph_config(), estimator="MCE",
                        label_fraction=0.1, repetition=1)
        assert other.run_seed != spec.run_seed

    def test_round_trip_through_dict(self):
        spec = RunSpec(
            graph=small_graph_config(),
            estimator="DCEr",
            estimator_kwargs={"n_restarts": 4},
            propagator="bp",
            propagator_kwargs={"damping": 0.5},
            label_fraction=0.05,
            repetition=3,
            base_seed=2,
        )
        twin = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert twin.content_hash == spec.content_hash

    def test_unknown_names_rejected_with_choices(self):
        with pytest.raises(ValueError, match="unknown estimator 'nope'.*MCE"):
            RunSpec(graph=small_graph_config(), estimator="nope", label_fraction=0.1)
        with pytest.raises(ValueError, match="unknown propagator 'nope'.*linbp"):
            RunSpec(graph=small_graph_config(), estimator="MCE",
                    label_fraction=0.1, propagator="nope")

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="label_fraction"):
            RunSpec(graph=small_graph_config(), estimator="MCE", label_fraction=0.0)


class TestGridSpec:
    def test_expansion_size_and_order(self, grid):
        runs = grid.expand()
        assert len(runs) == grid.n_runs == 1 * 2 * 2 * 2 * 2
        # Estimators innermost: the first two runs differ only by estimator.
        assert runs[0].estimator == "MCE"
        assert runs[1].estimator == "DCE"
        assert runs[0].label_fraction == runs[1].label_fraction
        assert runs[0].repetition == runs[1].repetition
        # Deterministic: expanding twice yields the same hash sequence.
        assert [run.content_hash for run in runs] == [
            run.content_hash for run in grid.expand()
        ]
        # Every run is unique.
        assert len({run.content_hash for run in runs}) == len(runs)

    def test_json_round_trip(self, grid, tmp_path):
        path = grid.to_json(tmp_path / "grid.json")
        loaded = GridSpec.from_json(path)
        assert [run.content_hash for run in loaded.expand()] == [
            run.content_hash for run in grid.expand()
        ]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown grid spec fields"):
            GridSpec.from_dict(
                {
                    "graphs": [small_graph_config()],
                    "estimators": ["MCE"],
                    "label_fractions": [0.1],
                    "typo_field": 1,
                }
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="grid spec needs 'estimators'"):
            GridSpec.from_dict(
                {"graphs": [small_graph_config()], "label_fractions": [0.1]}
            )

    def test_unknown_estimator_fails_eagerly(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            GridSpec(
                graphs=[small_graph_config()],
                estimators=["definitely-not-registered"],
                label_fractions=[0.1],
            )


class TestBuildGraph:
    def test_generate_kind_is_deterministic(self):
        graph_a = build_graph(small_graph_config())
        graph_b = build_graph(small_graph_config())
        assert graph_a.n_nodes == 120
        assert graph_a.n_edges == graph_b.n_edges
        assert (graph_a.labels == graph_b.labels).all()

    def test_homophily_pattern(self):
        from repro.graph.features import homophily_index

        graph = build_graph(small_graph_config(pattern="homophily", h=6.0))
        assert homophily_index(graph) > 0.5

    def test_npz_kind(self, tmp_path):
        from repro.graph.io import save_graph_npz

        graph = build_graph(small_graph_config())
        path = tmp_path / "stored.npz"
        save_graph_npz(graph, path)
        loaded = build_graph({"kind": "npz", "path": str(path)})
        assert loaded.n_nodes == graph.n_nodes

    def test_dataset_kind_validates_name(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_graph({"kind": "dataset", "name": "not-a-dataset"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown graph config kind"):
            build_graph({"kind": "teleport"})

    def test_graph_config_hash_ignores_key_order(self):
        config = small_graph_config()
        assert content_hash(config) == content_hash(dict(reversed(list(config.items()))))


class TestSharding:
    """GridSpec.shard: deterministic, disjoint, union == expand()."""

    def test_union_of_shards_is_full_grid_no_overlap(self, grid):
        full = {run.content_hash for run in grid.expand()}
        for n_shards in (1, 2, 3, 5):
            shards = [grid.shard(index, n_shards) for index in range(n_shards)]
            hashes = [
                {run.content_hash for run in shard} for shard in shards
            ]
            assert sum(len(shard) for shard in hashes) == len(full)  # disjoint
            union = set().union(*hashes)
            assert union == full

    def test_partition_is_deterministic(self, grid):
        first = [run.content_hash for run in grid.shard(1, 3)]
        second = [run.content_hash for run in grid.shard(1, 3)]
        assert first == second
        # A freshly built equal grid computes the same split (no process
        # state involved): this is what lets every machine agree.
        rebuilt = GridSpec.from_dict(grid.to_dict())
        assert [run.content_hash for run in rebuilt.shard(1, 3)] == first

    def test_shards_preserve_expansion_order(self, grid):
        expansion = [run.content_hash for run in grid.expand()]
        shard = [run.content_hash for run in grid.shard(0, 2)]
        positions = [expansion.index(value) for value in shard]
        assert positions == sorted(positions)

    def test_single_shard_is_whole_grid(self, grid):
        assert [run.content_hash for run in grid.shard(0, 1)] == [
            run.content_hash for run in grid.expand()
        ]

    def test_assignment_stable_under_grid_growth(self, grid):
        # Adding an estimator must not move existing runs between shards.
        before = {
            run.content_hash: shard_index
            for shard_index in range(4)
            for run in grid.shard(shard_index, 4)
        }
        grown = GridSpec.from_dict(
            {**grid.to_dict(), "estimators": ["MCE",
             {"name": "DCE", "kwargs": {"max_length": 3}}, "LCE"]}
        )
        after = {
            run.content_hash: shard_index
            for shard_index in range(4)
            for run in grown.shard(shard_index, 4)
        }
        for run_hash, shard_index in before.items():
            assert after[run_hash] == shard_index

    def test_invalid_shard_arguments(self, grid):
        with pytest.raises(ValueError, match="n_shards"):
            grid.shard(0, 0)
        with pytest.raises(ValueError, match="shard index"):
            grid.shard(2, 2)
        with pytest.raises(ValueError, match="shard index"):
            grid.shard(-1, 2)

"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.io import load_graph_npz


@pytest.fixture()
def graph_file(tmp_path):
    """A small synthetic graph written through the CLI itself."""
    path = tmp_path / "graph.npz"
    exit_code = main(
        [
            "generate",
            "--nodes", "400",
            "--edges", "3200",
            "--classes", "3",
            "--skew", "3",
            "--seed", "1",
            "-o", str(path),
        ]
    )
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--nodes", "10", "--edges", "20", "-o", "x.npz"]
        )
        assert args.command == "generate"
        assert args.nodes == 10
        assert args.skew == 3.0

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate", "graph.npz"])
        assert args.method == "DCEr"
        assert args.fraction == 0.01
        assert args.max_length == 5

    def test_unknown_method_parses_but_fails_cleanly(self, capsys):
        # Validation happens at execution time against the registry, so the
        # parser accepts any string and `main` exits 2 with the names listed.
        args = build_parser().parse_args(["estimate", "graph.npz", "--method", "magic"])
        assert args.method == "magic"
        assert main(["estimate", "graph.npz", "--method", "magic"]) == 2
        error = capsys.readouterr().err
        assert "unknown estimator 'magic'" in error
        assert "DCEr" in error

    @pytest.mark.parametrize("command", ["stream", "serve"])
    def test_stream_and_serve_have_no_propagator_option(self, command):
        # Both run LinBP; echo cancellation is a serve load option.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "g.npz", "--propagator", "bp"])

    def test_dataset_choices(self):
        args = build_parser().parse_args(["dataset", "cora", "-o", "cora.npz"])
        assert args.name == "cora"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "unknown", "-o", "x.npz"])


class TestGenerateAndDataset:
    def test_generate_writes_valid_graph(self, graph_file):
        graph = load_graph_npz(graph_file)
        assert graph.n_nodes == 400
        assert graph.n_classes == 3
        assert np.all(graph.labels >= 0)

    def test_generate_homophily_flag(self, tmp_path, capsys):
        path = tmp_path / "homo.npz"
        assert main(
            [
                "generate", "--nodes", "300", "--edges", "1800",
                "--homophily", "--skew", "5", "-o", str(path),
            ]
        ) == 0
        from repro.graph.features import homophily_index

        graph = load_graph_npz(path)
        assert homophily_index(graph) > 0.5

    def test_dataset_command(self, tmp_path):
        path = tmp_path / "citeseer.npz"
        assert main(["dataset", "citeseer", "--scale", "0.2", "-o", str(path)]) == 0
        graph = load_graph_npz(path)
        assert graph.n_classes == 6


class TestSummaryEstimateExperiment:
    def test_summary_prints_statistics(self, graph_file, capsys):
        assert main(["summary", str(graph_file)]) == 0
        output = capsys.readouterr().out
        assert "n_nodes: 400" in output
        assert "compatibility_skew" in output

    def test_estimate_prints_matrix(self, graph_file, capsys):
        assert main(
            ["estimate", str(graph_file), "--method", "MCE", "--fraction", "0.2"]
        ) == 0
        output = capsys.readouterr().out
        assert "method: MCE" in output
        assert "estimated compatibility matrix" in output

    def test_estimate_dcer_with_options(self, graph_file, capsys):
        assert main(
            [
                "estimate", str(graph_file),
                "--method", "DCEr", "--fraction", "0.05",
                "--restarts", "4", "--scaling", "5",
            ]
        ) == 0
        assert "method: DCEr" in capsys.readouterr().out

    def test_estimate_prints_statistics_optimizer_split(self, graph_file, capsys):
        assert main(
            ["estimate", str(graph_file), "--method", "DCEr", "--fraction", "0.05",
             "--restarts", "4"]
        ) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("estimation split: ")]
        assert len(lines) == 1
        assert re.fullmatch(
            r"estimation split: statistics \d+\.\d{3}s, optimizer \d+\.\d{3}s "
            r"\(4 restarts, [1-9]\d* energy evaluations\)",
            lines[0],
        ), lines[0]
        # Estimators without a statistics/optimizer split print no such line.
        assert main(["estimate", str(graph_file), "--method", "MCE", "--fraction", "0.2"]) == 0
        assert "estimation split" not in capsys.readouterr().out

    def test_experiment_writes_json(self, graph_file, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        assert main(
            [
                "experiment", str(graph_file),
                "--method", "DCE", "--fraction", "0.1",
                "--json", str(json_path),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "macro accuracy" in output
        payload = json.loads(json_path.read_text())
        assert payload["method"] == "DCE"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert len(payload["compatibility"]) == 3


class TestErrorPaths:
    """Every user mistake exits with code 2 and a one-line message."""

    def test_unknown_estimator_lists_valid_names(self, graph_file, capsys):
        assert main(["estimate", str(graph_file), "--method", "nope"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("repro: error: unknown estimator 'nope'")
        for name in ("DCE", "DCEr", "GS", "Holdout", "LCE", "MCE"):
            assert name in error
        assert "Traceback" not in error

    def test_unknown_propagator_lists_valid_names(self, graph_file, capsys):
        assert main(
            ["experiment", str(graph_file), "--propagator", "warp-drive"]
        ) == 2
        error = capsys.readouterr().err
        assert "unknown propagator 'warp-drive'" in error
        assert "linbp" in error and "harmonic" in error
        assert "Traceback" not in error

    def test_missing_graph_file(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.npz"
        for command in (["summary"], ["estimate"], ["experiment"]):
            assert main(command + [str(missing)]) == 2
            error = capsys.readouterr().err
            assert "graph file not found" in error
            assert "Traceback" not in error

    def test_unreadable_graph_file(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not an npz bundle")
        assert main(["summary", str(garbage)]) == 2
        assert "could not read graph file" in capsys.readouterr().err

    def test_run_missing_spec_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "grid spec file not found" in capsys.readouterr().err

    def test_run_spec_path_is_a_directory(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        error = capsys.readouterr().err
        assert "invalid grid spec" in error
        assert "Traceback" not in error

    def test_run_invalid_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"graphs": [], "estimators": ["MCE"],
                                    "label_fractions": [0.1]}))
        assert main(["run", str(spec)]) == 2
        assert "invalid grid spec" in capsys.readouterr().err

    def test_run_type_malformed_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "graphs": [{"kind": "generate", "n_nodes": 50, "n_edges": 100}],
            "estimators": ["MCE"],
            "label_fractions": 0.1,  # scalar where a list is required
        }))
        assert main(["run", str(spec)]) == 2
        error = capsys.readouterr().err
        assert "invalid grid spec" in error
        assert "Traceback" not in error

    def test_run_unknown_estimator_in_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "graphs": [{"kind": "generate", "n_nodes": 50, "n_edges": 100}],
            "estimators": ["nope"],
            "label_fractions": [0.1],
        }))
        assert main(["run", str(spec)]) == 2
        error = capsys.readouterr().err
        assert "unknown estimator 'nope'" in error

    def test_run_unknown_estimator_kwarg_in_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "graphs": [{"kind": "generate", "n_nodes": 50, "n_edges": 100}],
            "estimators": [{"name": "DCEr", "kwargs": {"n_restart": 3}}],
            "label_fractions": [0.1],
        }))
        store = tmp_path / "store"
        assert main(["run", str(spec), "--store", str(store)]) == 2
        error = capsys.readouterr().err
        assert "'DCEr' takes no argument 'n_restart'" in error
        assert "n_restarts" in error
        assert not store.exists()

    def test_report_missing_store(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "no-store")]) == 2
        assert "not found" in capsys.readouterr().err


class TestListCommand:
    def test_list_prints_both_registries(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "propagators:" in output
        assert "estimators:" in output
        for name in ("linbp", "harmonic", "bp", "DCEr", "MCE", "Holdout"):
            assert name in output
        # Docstring first lines ride along.
        assert "LinBP" in output
        assert "restarts" in output


class TestRunAndReport:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = {
            "name": "cli-grid",
            "graphs": [{"kind": "generate", "name": "cli-graph", "n_nodes": 200,
                        "n_edges": 1000, "n_classes": 3, "h": 3.0, "seed": 2}],
            "estimators": ["MCE", "LCE"],
            "label_fractions": [0.05, 0.1],
            "n_repetitions": 2,
            "base_seed": 3,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_executes_and_rerun_hits_cache(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", str(spec_file), "--store", str(store),
                     "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "8 executed" in output
        assert "0 cache hits" in output
        assert (store / "results.jsonl").exists()
        assert (store / "manifest.json").exists()
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["n_records"] == 8
        assert manifest["status_counts"] == {"ok": 8}

        # Immediate re-run: 100% cache hits, zero re-executed runs.
        assert main(["run", str(spec_file), "--store", str(store),
                     "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "8 cache hits (100%)" in output
        assert "0 executed" in output

    def test_run_serial_flag(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", str(spec_file), "--store", str(store),
                     "--serial", "--quiet"]) == 0
        assert "1 worker)" in capsys.readouterr().out

    def test_report_renders_table(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        main(["run", str(spec_file), "--store", str(store), "--serial", "--quiet"])
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        output = capsys.readouterr().out
        assert "records: 8 (8 ok)" in output
        assert "| label_fraction | LCE | MCE |" in output
        assert "(n=2)" in output


@pytest.fixture()
def events_file(tmp_path, graph_file):
    """A small valid event stream for the graph_file fixture."""
    from repro.graph.io import load_graph_npz as load
    from repro.stream import GraphDelta, write_delta_stream

    graph = load(graph_file)
    adjacency = graph.adjacency
    labels = graph.require_labels()
    rng = np.random.default_rng(3)
    seen = set()
    deltas = []
    for _ in range(3):
        edges = []
        while len(edges) < 4:
            u, v = (int(x) for x in rng.integers(0, graph.n_nodes, 2))
            u, v = min(u, v), max(u, v)
            if u == v or (u, v) in seen or adjacency[u, v] != 0:
                continue
            seen.add((u, v))
            edges.append([u, v])
        reveal = rng.choice(graph.n_nodes, 2, replace=False)
        deltas.append(GraphDelta(
            add_edges=edges, reveal_nodes=reveal, reveal_labels=labels[reveal]
        ))
    return write_delta_stream(deltas, tmp_path / "events.jsonl")


class TestStreamCommand:
    def test_stream_replays_and_reports(self, graph_file, events_file, tmp_path, capsys):
        report_path = tmp_path / "replay.json"
        exit_code = main([
            "stream", str(graph_file), str(events_file),
            "--method", "GS", "--fraction", "0.1",
            "--verify-every", "2", "--json", str(report_path),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "incremental" in output
        assert "max verified deviation" in output
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["n_steps"] == 4  # initial solve + 3 deltas
        assert payload["max_deviation"] is not None
        assert payload["max_deviation"] <= 1e-6

    def test_stream_json_includes_quality_block(self, graph_file, events_file,
                                                tmp_path, capsys):
        report_path = tmp_path / "replay.json"
        exit_code = main([
            "stream", str(graph_file), str(events_file),
            "--method", "GS", "--fraction", "0.1", "--json", str(report_path),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        quality = payload["quality"]
        assert quality["prequential"]["scored"] > 0
        assert 0.0 <= quality["prequential"]["accuracy"] <= 1.0
        assert quality["drift"]["value"] is not None
        assert quality["churn"]["steps"] == 3
        assert "prequential accuracy:" in output
        assert "compatibility drift:" in output

    def test_committed_drift_stream_shows_quality_regression(self, tmp_path,
                                                             capsys):
        """The shipped examples/streams/drift_events.jsonl replays into
        collapsing prequential accuracy and a rising drift gauge (the same
        story CI's quality smoke asserts against a live fleet)."""
        stream = (Path(__file__).resolve().parent.parent
                  / "examples/streams/drift_events.jsonl")
        graph_path = tmp_path / "drift-graph.npz"
        assert main([
            "generate", "--nodes", "500", "--edges", "2500", "--classes", "3",
            "--skew", "3", "--seed", "2", "-o", str(graph_path),
        ]) == 0
        report_path = tmp_path / "drift-replay.json"
        assert main([
            "stream", str(graph_path), str(stream),
            "--method", "GS", "--fraction", "0.1", "--quiet",
            "--json", str(report_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        quality = payload["quality"]
        assert quality["prequential"]["scored"] >= 100
        assert quality["prequential"]["accuracy"] < 0.5  # noise dominates
        assert quality["prequential"]["last_accuracy"] < 0.4
        assert quality["drift"]["value"] > 0.3

    def test_stream_without_verification(self, graph_file, events_file, capsys):
        exit_code = main([
            "stream", str(graph_file), str(events_file),
            "--method", "GS", "--fraction", "0.1", "--quiet",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "deviation" not in output

    def test_stream_missing_events_file(self, graph_file, tmp_path, capsys):
        exit_code = main([
            "stream", str(graph_file), str(tmp_path / "missing.jsonl"),
        ])
        assert exit_code == 2
        assert "event file not found" in capsys.readouterr().err

    def test_stream_malformed_events_fail_cleanly(self, graph_file, tmp_path, capsys):
        events = tmp_path / "bad.jsonl"
        events.write_text("not json\n", encoding="utf-8")
        exit_code = main(["stream", str(graph_file), str(events)])
        assert exit_code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_stream_empty_events_fail_cleanly(self, graph_file, tmp_path, capsys):
        events = tmp_path / "empty.jsonl"
        events.write_text("# only comments\n", encoding="utf-8")
        exit_code = main(["stream", str(graph_file), str(events)])
        assert exit_code == 2
        assert "no deltas" in capsys.readouterr().err


class TestGcCommand:
    def make_store(self, tmp_path):
        from repro.runner.store import ResultStore

        store = ResultStore(tmp_path / "store")
        record = {
            "hash": "aaa", "status": "ok", "spec": {}, "result": {},
        }
        store.append(record)
        store.append(dict(record, status="error"))
        store.append({"hash": "bbb", "status": "error", "spec": {}, "result": None})
        store.write_manifest()
        return store

    def test_gc_compacts_store(self, tmp_path, capsys):
        store = self.make_store(tmp_path)
        exit_code = main(["gc", str(store.path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "kept 2 of 3" in output
        with store.results_path.open("r", encoding="utf-8") as handle:
            assert sum(1 for line in handle if line.strip()) == 2

    def test_gc_drop_failed(self, tmp_path, capsys):
        store = self.make_store(tmp_path)
        exit_code = main(["gc", str(store.path), "--drop-failed"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "kept 0 of 3" in output

    def test_gc_dry_run_leaves_store_untouched(self, tmp_path, capsys):
        store = self.make_store(tmp_path)
        before = store.results_path.read_text(encoding="utf-8")
        exit_code = main(["gc", str(store.path), "--dry-run", "--drop-failed"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "would drop" in output
        assert store.results_path.read_text(encoding="utf-8") == before

    def test_gc_missing_store(self, tmp_path, capsys):
        exit_code = main(["gc", str(tmp_path / "nope")])
        assert exit_code == 2
        assert "not found" in capsys.readouterr().err


class TestShardedRunAndMerge:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = {
            "name": "shard-grid",
            "graphs": [{"kind": "generate", "name": "shard-graph", "n_nodes": 200,
                        "n_edges": 1000, "n_classes": 3, "h": 3.0, "seed": 4}],
            "estimators": ["MCE", "LCE"],
            "label_fractions": [0.05, 0.1],
            "n_repetitions": 2,
            "base_seed": 6,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        return path

    def test_shards_into_shared_store_match_unsharded(self, spec_file, tmp_path, capsys):
        from repro.runner.store import ResultStore

        unsharded = tmp_path / "unsharded"
        assert main(["run", str(spec_file), "--store", str(unsharded),
                     "--serial", "--quiet"]) == 0
        shared = tmp_path / "shared"
        for index in range(2):
            assert main(["run", str(spec_file), "--store", str(shared),
                         "--shard", f"{index}/2", "--serial", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "shard 0/2" in output and "shard 1/2" in output

        full = ResultStore(unsharded)
        merged = ResultStore(shared)
        assert [(r["hash"], r["result"]) for r in merged.records()] == \
               [(r["hash"], r["result"]) for r in full.records()]
        # The final shard's manifest covers the whole store.
        manifest = merged.read_manifest()
        assert manifest["n_records"] == 8

    def test_merge_command_unions_shard_stores(self, spec_file, tmp_path, capsys):
        from repro.runner.store import ResultStore

        stores = [tmp_path / "shard-a", tmp_path / "shard-b"]
        for index, store in enumerate(stores):
            assert main(["run", str(spec_file), "--store", str(store),
                         "--shard", f"{index}/2", "--serial", "--quiet"]) == 0
        capsys.readouterr()
        destination = tmp_path / "merged"
        assert main(["merge", str(destination)] + [str(s) for s in stores]) == 0
        output = capsys.readouterr().out
        assert "8 added, 0 identical, 0 conflict(s)" in output
        assert len(ResultStore(destination)) == 8
        # report works on the merged store like on any other.
        assert main(["report", str(destination)]) == 0
        assert "records: 8 (8 ok)" in capsys.readouterr().out

    def test_leftover_sqlite_file_exits_cleanly(self, spec_file, tmp_path, capsys):
        # Single-file SQLite stores were removed: every command reading a
        # store, pointed at a regular file, exits 2 with one line naming the
        # conversion command, and leaves the file alone.
        leftover = tmp_path / "old-store.db"
        leftover.write_bytes(b"SQLite format 3\x00")
        source = tmp_path / "source"
        source.mkdir()
        for argv in (
            ["run", str(spec_file), "--store", str(leftover), "--serial"],
            ["report", str(leftover)],
            ["gc", str(leftover)],
            ["merge", str(tmp_path / "merged"), str(leftover)],
            ["merge", str(leftover), str(source)],
            ["stream", "ffffffff", "--from-store", str(leftover)],
        ):
            assert main(argv) == 2, argv
            error = capsys.readouterr().err
            assert error.count("\n") == 1, error
            assert "SQLite stores were removed" in error
            assert f"repro merge <dir> {leftover}" in error
        assert leftover.read_bytes() == b"SQLite format 3\x00"

    def test_invalid_shard_values_exit_cleanly(self, spec_file, tmp_path, capsys):
        # ("-1/2" is rejected by argparse itself: it looks like an option.)
        for value in ("banana", "3", "1/0", "2/2", "0/2/4"):
            assert main(["run", str(spec_file), "--store",
                         str(tmp_path / "s"), "--shard", value]) == 2
            error = capsys.readouterr().err
            assert "--shard" in error
            assert "Traceback" not in error

    def test_merge_missing_source_exits_cleanly(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path / "dst"),
                     str(tmp_path / "missing-src")]) == 2
        assert "result store not found" in capsys.readouterr().err

    def test_corrupted_store_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "results.jsonl").write_text(
            '{"hash": "aaa", "status": "ok", "spec": {}, "result": {}}\n'
            "garbage line\n"
            '{"hash": "bbb", "status": "ok", "spec": {}, "result": {}}\n',
            encoding="utf-8",
        )
        assert main(["report", str(store)]) == 2
        error = capsys.readouterr().err
        assert "line 2" in error
        assert "Traceback" not in error


class TestStreamFromStore:
    @pytest.fixture()
    def store_with_run(self, tmp_path):
        """A one-record store executed through the runner."""
        from repro.runner.executor import execute_grid
        from repro.runner.spec import GridSpec
        from repro.runner.store import ResultStore

        grid = GridSpec(
            graphs=[{"kind": "generate", "n_nodes": 150, "n_edges": 900,
                     "seed": 2, "name": "stored"}],
            estimators=["MCE"],
            label_fractions=[0.1],
            name="cli-from-store",
        )
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store)
        return tmp_path / "store", grid.expand()[0].content_hash

    def test_stream_from_store_synthesizes_events(self, store_with_run, capsys):
        store_path, run_hash = store_with_run
        exit_code = main([
            "stream", run_hash[:12], "--from-store", str(store_path),
            "--method", "GS", "--fraction", "0.1",
            "--synth-events", "4", "--quiet",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "rebuilt graph of record" in output
        assert "synthesized 4 insertion events" in output
        assert "5 steps" in output  # initial solve + 4 events

    def test_stream_from_store_unknown_hash(self, store_with_run, capsys):
        store_path, _ = store_with_run
        exit_code = main([
            "stream", "ffffffff", "--from-store", str(store_path),
        ])
        assert exit_code == 2
        assert "no record with hash prefix" in capsys.readouterr().err

    def test_stream_synthesizes_from_npz_without_events(self, graph_file, capsys):
        exit_code = main([
            "stream", str(graph_file), "--method", "GS", "--fraction", "0.1",
            "--synth-events", "3", "--synth-initial", "0.7", "--quiet",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "synthesized 3 insertion events" in output

    def test_synth_initial_out_of_range(self, graph_file, capsys):
        exit_code = main([
            "stream", str(graph_file), "--synth-initial", "1.5",
        ])
        assert exit_code == 2
        assert "initial_fraction" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args([
            "serve", "graph.npz", "--port", "9000", "--max-batch", "32",
            "--max-latency", "0.01",
        ])
        assert args.command == "serve"
        assert args.port == 9000
        assert args.max_batch == 32
        assert args.max_latency == 0.01

    def test_serve_missing_graph_file(self, capsys):
        exit_code = main(["serve", "missing.npz", "--port", "0"])
        assert exit_code == 2
        assert "graph file not found" in capsys.readouterr().err

    def test_serve_from_store_without_hash(self, tmp_path, capsys):
        exit_code = main(["serve", "--from-store", str(tmp_path), "--port", "0"])
        assert exit_code == 2
        assert "needs a record hash" in capsys.readouterr().err

    def test_serve_end_to_end_over_http(self, graph_file):
        # Bind port 0, run serve_forever on a thread, exercise the JSON API
        # exactly like the CI smoke test does with curl.
        import json as json_module
        import threading
        import urllib.request

        from repro.serve import InferenceService, MicroBatcher, make_server

        service = InferenceService()
        service.load_graph("default", path=graph_file, fraction=0.1)
        with MicroBatcher(service) as batcher:
            server = make_server(service, port=0, batcher=batcher)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = server.server_address[1]
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/graphs/default/query",
                    data=json_module.dumps({"nodes": [0, 1]}).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    payload = json_module.loads(response.read())
                assert len(payload["beliefs"]) == 2
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

    def test_parser_accepts_observability_flags(self):
        args = build_parser().parse_args([
            "serve", "graph.npz", "--trace-sample", "0.1",
            "--slo", "slo.json", "--slo-interval", "0.5",
        ])
        assert args.trace_sample == 0.1
        assert args.slo == "slo.json"
        assert args.slo_interval == 0.5

    def test_trace_sample_out_of_range(self, graph_file, capsys):
        exit_code = main([
            "serve", str(graph_file), "--port", "0", "--trace-sample", "1.5",
        ])
        assert exit_code == 2
        assert "--trace-sample must be in [0, 1]" in capsys.readouterr().err

    def test_slo_spec_file_missing(self, graph_file, capsys):
        exit_code = main([
            "serve", str(graph_file), "--port", "0", "--slo", "missing.json",
        ])
        assert exit_code == 2
        assert "SLO spec file not found" in capsys.readouterr().err

    def test_slo_spec_invalid_rule(self, graph_file, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({"rules": [
            {"name": "bad", "kind": "nope", "metric": "m"},
        ]}))
        exit_code = main([
            "serve", str(graph_file), "--port", "0", "--slo", str(spec),
        ])
        assert exit_code == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_slo_spec_with_a_removed_kind(self, graph_file, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({"rules": [
            {"name": "error-burn", "kind": "burn_rate", "metric": "m",
             "denominator": "m", "budget": 0.01},
        ]}))
        exit_code = main([
            "serve", str(graph_file), "--port", "0", "--slo", str(spec),
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "unknown kind 'burn_rate'" in err
        assert "quantile_max, min_quantile, gauge_max, ratio_max" in err


class TestTopCommand:
    @pytest.fixture()
    def metrics_servers(self):
        """Two /metrics endpoints serving mutable registries' snapshots."""
        import http.server
        import threading

        from repro import obs

        stubs = []
        for _ in range(2):
            registry = obs.MetricsRegistry()

            def make_handler(reg):
                class Handler(http.server.BaseHTTPRequestHandler):
                    def do_GET(self):
                        body = json.dumps(reg.snapshot()).encode()
                        self.send_response(200)
                        self.send_header("Content-Length", str(len(body)))
                        self.end_headers()
                        self.wfile.write(body)

                    def log_message(self, *args):
                        pass

                return Handler

            server = http.server.HTTPServer(
                ("127.0.0.1", 0), make_handler(registry)
            )
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            stubs.append((server, thread, registry))
        try:
            yield stubs
        finally:
            for server, thread, _ in stubs:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

    def test_parser_accepts_top(self):
        args = build_parser().parse_args([
            "top", ":8151", ":8152", "--interval", "0.5", "--once", "--json",
        ])
        assert args.command == "top"
        assert args.endpoints == [":8151", ":8152"]
        assert args.once and args.as_json

    def test_json_requires_once(self, capsys):
        assert main(["top", ":8151", "--json"]) == 2
        assert "--json needs --once" in capsys.readouterr().err

    def test_duplicate_endpoints_fail_cleanly(self, capsys):
        assert main(["top", ":8151", "127.0.0.1:8151", "--once"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_once_json_federates_worker_counters(self, metrics_servers, capsys):
        from repro.obs import top as obs_top

        for n, (_, _, registry) in zip((30, 12), metrics_servers):
            registry.counter(obs_top.QUERIES, "Queries.", graph="g").inc(n)
        endpoints = [
            f":{server.server_address[1]}" for server, _, _ in metrics_servers
        ]
        exit_code = main([
            "top", *endpoints, "--once", "--json", "--interval", "0.05",
        ])
        assert exit_code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["instances_up"] == 2
        per_instance = sum(
            row["queries_total"] for row in summary["instances"].values()
        )
        assert summary["fleet"]["queries_total"] == per_instance == 42

    def test_once_exits_nonzero_when_fleet_down(self, capsys):
        exit_code = main([
            "top", ":1", "--once", "--json",
            "--interval", "0.05", "--timeout", "0.2",
        ])
        assert exit_code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["instances_up"] == 0

    def test_once_renders_dashboard_without_json(self, metrics_servers, capsys):
        endpoint = f":{metrics_servers[0][0].server_address[1]}"
        exit_code = main(["top", endpoint, "--once", "--interval", "0.05"])
        assert exit_code == 0
        assert "repro top — 1/1 instances up" in capsys.readouterr().out


class TestStatsTraceId:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        """Two traces: a two-span tree and a single root span."""
        path = tmp_path / "trace.jsonl"
        records = [
            {"trace": "ab12cd34", "span": "s1", "parent": None,
             "name": "serve.query", "ts": 10.0, "duration_ms": 5.0,
             "thread": "main"},
            {"trace": "ab12cd34", "span": "s2", "parent": "s1",
             "name": "propagate", "ts": 10.001, "duration_ms": 3.0,
             "thread": "main"},
            {"trace": "ff990011", "span": "s3", "parent": None,
             "name": "serve.query", "ts": 11.0, "duration_ms": 1.0,
             "thread": "main"},
        ]
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        return path

    def test_trace_id_renders_span_tree(self, trace_file, capsys):
        exit_code = main(["stats", str(trace_file), "--trace-id", "ab12cd34"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "serve.query" in output
        assert "propagate" in output
        assert "ff990011" not in output

    def test_trace_id_prefix_match(self, trace_file, capsys):
        exit_code = main(["stats", str(trace_file), "--trace-id", "ff99"])
        assert exit_code == 0
        assert "ff990011" in capsys.readouterr().out

    def test_unknown_trace_id_exits_cleanly(self, trace_file, capsys):
        exit_code = main(["stats", str(trace_file), "--trace-id", "deadbeef"])
        assert exit_code == 2
        assert "deadbeef" in capsys.readouterr().err

    def test_mid_file_corruption_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "{broken\n"
            + json.dumps({"trace": "t", "span": "s", "parent": None,
                          "name": "n", "ts": 0.0, "duration_ms": 1.0}) + "\n"
        )
        exit_code = main(["stats", str(path), "--trace-id", "t"])
        assert exit_code == 2
        assert "line 1" in capsys.readouterr().err

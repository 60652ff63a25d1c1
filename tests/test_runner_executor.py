"""Executor tests: caching, parallel/serial equivalence, failure isolation."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.estimators import LCE, MCE
from repro.eval.sweeps import sweep_label_sparsity, sweep_parameter
from repro.runner.executor import (
    RunTimeoutError,
    _call_with_timeout,
    _make_batches,
    chunk_evenly,
    execute_grid,
)
from repro.runner.spec import GridSpec, RunSpec
from repro.runner.store import ResultStore


@pytest.fixture()
def grid() -> GridSpec:
    return GridSpec(
        graphs=[
            {"kind": "generate", "name": "exec-a", "n_nodes": 150, "n_edges": 750,
             "n_classes": 3, "h": 3.0, "seed": 1},
            {"kind": "generate", "name": "exec-b", "n_nodes": 150, "n_edges": 750,
             "n_classes": 3, "h": 3.0, "seed": 2},
        ],
        estimators=["MCE", "LCE"],
        label_fractions=[0.1],
        n_repetitions=2,
        base_seed=5,
        name="executor-test",
    )


class TestCaching:
    def test_cache_miss_then_full_hit(self, grid, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = execute_grid(grid, store=store, n_workers=1)
        assert first.n_cached == 0
        assert first.n_executed == grid.n_runs
        assert first.n_errors == 0
        assert all(outcome.status == "ok" for outcome in first.outcomes)

        second = execute_grid(grid, store=store, n_workers=1)
        assert second.n_cached == grid.n_runs
        assert second.n_executed == 0
        assert second.cache_hit_rate == 1.0
        assert all(outcome.status == "cached" for outcome in second.outcomes)
        # Cached payloads are the stored ones, bit for bit.
        for fresh, cached in zip(first.outcomes, second.outcomes):
            assert cached.result == fresh.result

    def test_partial_cache_hit(self, grid, tmp_path):
        store = ResultStore(tmp_path / "store")
        runs = grid.expand()
        execute_grid(runs[:3], store=store, n_workers=1)
        report = execute_grid(runs, store=store, n_workers=1)
        assert report.n_cached == 3
        assert report.n_executed == len(runs) - 3

    def test_force_re_executes(self, grid, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store, n_workers=1)
        forced = execute_grid(grid, store=store, n_workers=1, force=True)
        assert forced.n_cached == 0
        assert forced.n_executed == grid.n_runs

    def test_without_store_nothing_is_cached(self, grid):
        report = execute_grid(grid, n_workers=1)
        assert report.n_cached == 0
        assert report.n_executed == grid.n_runs


class TestParallel:
    def test_parallel_equals_serial_bitwise(self, grid, tmp_path):
        serial = execute_grid(grid, store=ResultStore(tmp_path / "serial"), n_workers=1)
        parallel = execute_grid(
            grid, store=ResultStore(tmp_path / "parallel"), n_workers=2
        )
        assert parallel.n_executed == grid.n_runs
        assert [outcome.status for outcome in parallel.outcomes] == ["ok"] * grid.n_runs
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.spec.content_hash == b.spec.content_hash
            assert a.result == b.result  # bitwise: dict equality on floats

    def test_parallel_runs_in_worker_processes(self, grid, tmp_path):
        report = execute_grid(grid, store=ResultStore(tmp_path / "s"), n_workers=2)
        pids = {outcome.worker_pid for outcome in report.outcomes}
        assert os.getpid() not in pids  # every run executed outside this process
        assert report.n_workers == 2

    def test_parallel_rerun_hits_serial_store(self, grid, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store, n_workers=1)
        replay = execute_grid(grid, store=store, n_workers=2)
        assert replay.n_cached == grid.n_runs
        assert replay.n_executed == 0

    def test_progress_callback_sees_every_outcome(self, grid, tmp_path):
        seen = []
        execute_grid(
            grid,
            store=ResultStore(tmp_path / "store"),
            n_workers=2,
            progress=seen.append,
        )
        assert len(seen) == grid.n_runs


class TestBatching:
    def test_chunk_evenly(self):
        assert chunk_evenly([], 4) == []
        assert chunk_evenly([1, 2, 3], 1) == [[1, 2, 3]]
        assert chunk_evenly([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]
        assert chunk_evenly([1, 2, 3], 8) == [[1], [2], [3]]

    @staticmethod
    def _pending(n_graphs: int, runs_per_graph: int):
        pending = []
        for graph_index in range(n_graphs):
            config = {"kind": "generate", "name": f"b{graph_index}",
                      "n_nodes": 50, "n_edges": 100, "seed": graph_index}
            for repetition in range(runs_per_graph):
                spec = RunSpec(graph=config, estimator="MCE",
                               label_fraction=0.1, repetition=repetition)
                pending.append((len(pending), spec))
        return pending

    def test_enough_graphs_means_one_build_per_graph(self):
        # 4 graph configs saturate a 4-worker pool: no redundant rebuilds.
        batches = _make_batches(self._pending(4, 3), n_workers=4, timeout=None)
        assert len(batches) == 4

    def test_single_graph_still_occupies_every_worker(self):
        batches = _make_batches(self._pending(1, 8), n_workers=4, timeout=None)
        assert len(batches) == 4


class TestFailureIsolation:
    def test_run_error_is_captured_not_raised(self, tmp_path):
        grid = GridSpec(
            graphs=[{"kind": "generate", "name": "bad", "n_nodes": 150,
                     "n_edges": 750, "n_classes": 3, "seed": 1}],
            # max_length=-1 passes spec validation (kwargs are opaque) but
            # fails inside the worker when the estimator is constructed.
            estimators=[{"name": "DCE", "kwargs": {"max_length": -1}}],
            label_fractions=[0.1],
            name="failing",
        )
        store = ResultStore(tmp_path / "store")
        report = execute_grid(grid, store=store, n_workers=1)
        assert report.n_errors == 1
        outcome = report.outcomes[0]
        assert outcome.status == "error"
        assert "max_length" in outcome.error
        # The failure is recorded but treated as a cache miss next time.
        retry = execute_grid(grid, store=store, n_workers=1)
        assert retry.n_cached == 0
        assert retry.n_executed == 1

    def test_graph_build_failure_marks_whole_batch(self, tmp_path):
        grid = GridSpec(
            graphs=[{"kind": "npz", "path": str(tmp_path / "missing.npz")}],
            estimators=["MCE", "LCE"],
            label_fractions=[0.1],
            name="missing-graph",
        )
        report = execute_grid(grid, n_workers=1)
        assert report.n_errors == 2
        assert all(outcome.status == "error" for outcome in report.outcomes)

    def test_timeout_helper_interrupts_slow_calls(self):
        with pytest.raises(RunTimeoutError):
            _call_with_timeout(lambda: time.sleep(5), timeout=0.05)
        assert _call_with_timeout(lambda: 42, timeout=5.0) == 42
        assert _call_with_timeout(lambda: 42, timeout=None) == 42


class TestStoreReporting:
    def test_multi_graph_multi_propagator_columns_stay_separate(self, tmp_path):
        from repro.runner.progress import store_to_sweep

        grid = GridSpec(
            graphs=[
                {"kind": "generate", "name": "rep-a", "n_nodes": 120,
                 "n_edges": 600, "n_classes": 3, "seed": 1},
                {"kind": "generate", "name": "rep-b", "n_nodes": 120,
                 "n_edges": 600, "n_classes": 3, "seed": 2},
            ],
            estimators=["MCE"],
            propagators=["linbp", "harmonic"],
            label_fractions=[0.1],
            name="report-mix",
        )
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store, n_workers=1)
        sweep = store_to_sweep(store)
        # One column per (graph, method, propagator): nothing is averaged
        # across different experiments.
        assert sorted(sweep.methods) == [
            "rep-a:MCE/harmonic",
            "rep-a:MCE/linbp",
            "rep-b:MCE/harmonic",
            "rep-b:MCE/linbp",
        ]
        assert all(count == 1 for count in sweep.n_repetitions.values())

    def test_single_experiment_store_keeps_plain_labels(self, tmp_path):
        from repro.runner.progress import store_to_sweep

        grid = GridSpec(
            graphs=[{"kind": "generate", "name": "rep-a", "n_nodes": 120,
                     "n_edges": 600, "n_classes": 3, "seed": 1}],
            estimators=["MCE", "LCE"],
            label_fractions=[0.1],
            name="report-plain",
        )
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store, n_workers=1)
        assert sorted(store_to_sweep(store).methods) == ["LCE", "MCE"]


class TestSweepPort:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.core.compatibility import skew_compatibility
        from repro.graph.generator import generate_graph

        return generate_graph(200, 1_000, skew_compatibility(3, h=3.0), seed=9)

    def test_label_sparsity_parallel_equals_serial(self, graph):
        kwargs = dict(
            estimators={"MCE": MCE(), "LCE": LCE()},
            fractions=[0.05, 0.1],
            n_repetitions=2,
            seed=3,
        )
        serial = sweep_label_sparsity(graph, n_workers=1, **kwargs)
        parallel = sweep_label_sparsity(graph, n_workers=2, **kwargs)
        assert len(serial.records) == len(parallel.records) == 8
        for a, b in zip(serial.records, parallel.records):
            assert a.method == b.method
            assert a.parameter_value == b.parameter_value
            assert a.accuracy == b.accuracy
            assert a.l2_to_gold == b.l2_to_gold
            assert (a.compatibility == b.compatibility).all()
        assert serial.mean_accuracy == parallel.mean_accuracy

    def test_parameter_sweep_parallel_equals_serial(self):
        from repro.core.compatibility import skew_compatibility
        from repro.graph.generator import generate_graph

        def graph_factory(k):
            return generate_graph(40 * k, 200 * k, skew_compatibility(k, h=3.0), seed=k)

        def estimator_factory(k):
            return {"MCE": MCE()}

        kwargs = dict(
            parameter_name="k",
            parameter_values=[2, 3],
            label_fraction=0.1,
            n_repetitions=2,
            seed=4,
        )
        serial = sweep_parameter(graph_factory, estimator_factory, n_workers=1, **kwargs)
        parallel = sweep_parameter(graph_factory, estimator_factory, n_workers=2, **kwargs)
        assert [r.accuracy for r in serial.records] == [
            r.accuracy for r in parallel.records
        ]

    def test_sweep_n_repetitions_per_cell(self, graph):
        sweep = sweep_label_sparsity(
            graph, {"MCE": MCE()}, fractions=[0.1], n_repetitions=3, seed=0
        )
        assert sweep.n_repetitions == {("MCE", 0.1): 3}

    def test_aggregation_cache_invalidates_on_record_replacement(self, graph):
        import copy

        sweep = sweep_label_sparsity(
            graph, {"MCE": MCE()}, fractions=[0.1], n_repetitions=2, seed=0
        )
        before = sweep.mean_accuracy[("MCE", 0.1)]
        replacement = copy.copy(sweep.records[0])
        replacement.accuracy = 1.0
        sweep.records[0] = replacement  # same length, different record
        after = sweep.mean_accuracy[("MCE", 0.1)]
        assert after != before
        assert after == (1.0 + sweep.records[1].accuracy) / 2

    def test_empty_sweep_returns_empty_result(self, graph):
        sweep = sweep_label_sparsity(graph, {}, fractions=[0.1], seed=0)
        assert sweep.records == []
        assert sweep_label_sparsity(graph, {"MCE": MCE()}, fractions=[],
                                    seed=0).records == []


class TestTimeoutSignalHygiene:
    """SIGALRM handler/itimer restoration on every exit path."""

    def _install_sentinel(self):
        import signal

        def sentinel(signum, frame):  # pragma: no cover - never fired
            raise AssertionError("sentinel handler must not fire")

        return signal.signal(signal.SIGALRM, sentinel), sentinel

    def test_handler_and_timer_restored_after_success(self):
        import signal

        previous, sentinel = self._install_sentinel()
        try:
            assert _call_with_timeout(lambda: 7, timeout=5.0) == 7
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_handler_and_timer_restored_when_run_raises(self):
        import signal

        previous, sentinel = self._install_sentinel()
        try:
            def boom():
                raise RuntimeError("the run itself failed")

            with pytest.raises(RuntimeError, match="the run itself failed"):
                _call_with_timeout(boom, timeout=5.0)
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_handler_and_timer_restored_after_timeout_fires(self):
        import signal

        previous, sentinel = self._install_sentinel()
        try:
            with pytest.raises(RunTimeoutError):
                _call_with_timeout(lambda: time.sleep(5), timeout=0.05)
            assert signal.getsignal(signal.SIGALRM) is sentinel
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_timeout_off_main_thread_raises_clear_error(self):
        import threading

        captured = {}

        def target():
            try:
                _call_with_timeout(lambda: 1, timeout=1.0)
            except Exception as exc:  # noqa: BLE001 - recording for assert
                captured["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert isinstance(captured.get("error"), RuntimeError)
        assert "main thread" in str(captured["error"])

    def test_no_timeout_off_main_thread_is_fine(self):
        import threading

        captured = {}
        thread = threading.Thread(
            target=lambda: captured.update(value=_call_with_timeout(lambda: 9, None))
        )
        thread.start()
        thread.join()
        assert captured["value"] == 9


class TestBackendEquivalence:
    """Acceptance: sharded execution is record-identical to unsharded."""

    @staticmethod
    def _payloads(store: ResultStore) -> list[tuple[str, dict]]:
        # The deterministic identity of a store: hashes + result payloads
        # (timing and worker pids legitimately differ between executions).
        return [(record["hash"], record["result"]) for record in store.records()]

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_two_shard_run_record_identical_to_unsharded(
        self, grid, tmp_path, concurrent
    ):
        import threading

        unsharded = ResultStore(tmp_path / "unsharded")
        execute_grid(grid, store=unsharded, n_workers=1)

        shared = ResultStore(tmp_path / "shared")
        reports = {}

        def run_shard(index):
            # Separate handles, as separate shard processes would hold.
            shard_store = ResultStore(tmp_path / "shared")
            reports[index] = execute_grid(
                grid.shard(index, 2), store=shard_store, n_workers=1
            )

        if concurrent:
            threads = [
                threading.Thread(target=run_shard, args=(index,))
                for index in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for index in range(2):
                run_shard(index)
        assert sorted(reports) == [0, 1]
        assert all(report.n_errors == 0 for report in reports.values())
        shared.refresh()
        assert self._payloads(shared) == self._payloads(unsharded)
        # The last shard's manifest covers both shards' records.
        assert shared.read_manifest()["records"] == \
            unsharded.read_manifest()["records"]

    def test_shard_resume_skips_other_shards_results(self, grid, tmp_path):
        # After both shards ran into one store, re-running the FULL grid
        # against it is 100% cache hits: sharding left no gaps.
        store = ResultStore(tmp_path / "store")
        for index in range(2):
            execute_grid(grid.shard(index, 2), store=store, n_workers=1)
        store.refresh()
        report = execute_grid(grid, store=store, n_workers=1)
        assert report.n_cached == grid.n_runs
        assert report.n_executed == 0


class TestExecuteGridOffMainThread:
    def test_serial_timeout_off_main_thread_fails_fast(self, grid, tmp_path):
        import threading

        store = ResultStore(tmp_path / "store")
        captured = {}

        def target():
            try:
                execute_grid(grid, store=store, n_workers=1, timeout=30.0)
            except Exception as exc:  # noqa: BLE001 - recording for assert
                captured["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert isinstance(captured.get("error"), RuntimeError)
        assert "main thread" in str(captured["error"])
        # Nothing was executed or persisted as a bogus error record.
        assert len(store) == 0


class TestManifestMaintenance:
    def test_pure_replay_skips_manifest_rewrite(self, grid, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store, n_workers=1)
        before = store.manifest_path.stat().st_mtime_ns
        replay_store = ResultStore(tmp_path / "store")
        report = execute_grid(grid, store=replay_store, n_workers=1)
        assert report.n_cached == grid.n_runs
        assert store.manifest_path.stat().st_mtime_ns == before

    def test_stale_manifest_regenerated_on_replay(self, grid, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_grid(grid, store=store, n_workers=1)
        # Simulate a later execution that crashed after appending a record
        # but before its manifest write.
        record = dict(store.records()[0], hash="f" * 64)
        store.append(record)
        stale = ResultStore(tmp_path / "store")
        assert stale.read_manifest()["n_records"] == grid.n_runs  # stale
        execute_grid(grid, store=stale, n_workers=1)  # pure replay
        assert stale.read_manifest()["n_records"] == grid.n_runs + 1

"""Unit tests for the content-addressed JSONL result store.

The ``TestResultStore``/``TestCompaction`` suites exercise the store's
semantics through the ``store_factory`` fixture; physical properties
(line-level corruption, atomic rename, concurrent writers) get their own
classes below.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.runner.store import ResultStore, StoreCorruptionError, merge_stores


def make_record(key: str, status: str = "ok", **spec_overrides) -> dict:
    spec = {
        "graph": {"kind": "generate", "name": "store-test", "n_nodes": 10,
                  "n_edges": 20},
        "estimator": "MCE",
        "propagator": "linbp",
        "label_fraction": 0.1,
        "repetition": 0,
    }
    spec.update(spec_overrides)
    return {
        "hash": key,
        "spec": spec,
        "status": status,
        "result": {"accuracy": 0.5} if status == "ok" else None,
        "timing": {"total_seconds": 0.01},
        "error": None if status == "ok" else "boom",
    }


@pytest.fixture(params=["jsonl"])
def store_factory(tmp_path):
    """Open (or re-open) a named store directory."""

    def factory(name: str = "store") -> ResultStore:
        return ResultStore(tmp_path / name)

    return factory


class TestResultStore:
    """Index, manifest and refresh semantics."""

    def test_append_and_lookup(self, store_factory):
        store = store_factory()
        assert len(store) == 0
        store.append(make_record("aaa"))
        assert "aaa" in store
        assert "bbb" not in store
        assert store.get("aaa")["status"] == "ok"
        assert store.get("bbb") is None

    def test_reload_from_disk(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.append(make_record("bbb", status="error"))
        reloaded = store_factory()
        assert len(reloaded) == 2
        assert reloaded.get("bbb")["error"] == "boom"
        assert reloaded.hashes() == ["aaa", "bbb"]

    def test_duplicate_hash_keeps_latest(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa", status="error"))
        store.append(make_record("aaa", status="ok"))
        assert len(store) == 1
        assert store.get("aaa")["status"] == "ok"
        # The same holds after a reload (latest version wins).
        assert store_factory().get("aaa")["status"] == "ok"

    def test_record_without_hash_rejected(self, store_factory):
        store = store_factory()
        with pytest.raises(ValueError, match="hash"):
            store.append({"status": "ok"})

    def test_status_counts(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.append(make_record("bbb"))
        store.append(make_record("ccc", status="timeout"))
        assert store.status_counts() == {"ok": 2, "timeout": 1}

    def test_manifest_contents(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa", label_fraction=0.05))
        store.append(make_record("bbb", status="error"))
        path = store.write_manifest(extra={"grid": "demo"})
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["n_records"] == 2
        assert manifest["status_counts"] == {"ok": 1, "error": 1}
        assert manifest["grid"] == "demo"
        entries = {entry["hash"]: entry for entry in manifest["records"]}
        assert entries["aaa"]["label_fraction"] == 0.05
        assert entries["aaa"]["graph"] == "store-test"
        assert entries["bbb"]["status"] == "error"
        assert store.read_manifest() == manifest

    def test_read_manifest_absent(self, store_factory):
        assert store_factory().read_manifest() is None

    def test_refresh_sees_other_writers(self, store_factory):
        ours = store_factory()
        ours.append(make_record("aaa"))
        theirs = store_factory()  # second handle on the same storage
        theirs.append(make_record("bbb"))
        assert "bbb" not in ours  # stale in-memory index ...
        ours.refresh()
        assert "bbb" in ours  # ... until refreshed from disk

    def test_manifest_covers_other_writers_records(self, store_factory):
        ours = store_factory()
        ours.append(make_record("aaa"))
        store_factory().append(make_record("bbb"))
        manifest = json.loads(
            ours.write_manifest().read_text(encoding="utf-8")
        )
        # write_manifest refreshes by default, so a shard writing its final
        # manifest covers records sibling shards appended meanwhile.
        assert manifest["n_records"] == 2


class TestCompaction:
    def test_latest_version_survives(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.append(make_record("aaa", label_fraction=0.2))  # shadows
        store.append(make_record("bbb"))
        stats = store.compact()
        assert stats["n_kept"] == 2
        assert store.n_physical_records() == 2
        assert store.get("aaa")["spec"]["label_fraction"] == 0.2

    def test_compaction_preserves_index_semantics(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.append(make_record("aaa", status="error"))
        store.compact()
        # Latest wins, even when it is a failure (matches --force rules).
        assert store.get("aaa")["status"] == "error"
        reloaded = store_factory()
        assert reloaded.get("aaa")["status"] == "error"
        assert len(reloaded) == 1

    def test_drop_failed_removes_error_records(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.append(make_record("bbb", status="error"))
        store.append(make_record("ccc", status="timeout"))
        stats = store.compact(drop_failed=True)
        assert stats["n_kept"] == 1
        assert stats["n_dropped_failed"] == 2
        assert "bbb" not in store and "ccc" not in store
        # Dropped hashes re-execute on the next grid run (cache miss).
        assert len(store_factory()) == 1

    def test_manifest_rewritten_consistently(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.append(make_record("aaa"))
        store.append(make_record("bbb", status="error"))
        store.write_manifest()
        store.compact(drop_failed=True)
        manifest = store.read_manifest()
        assert manifest["n_records"] == 1
        assert manifest["status_counts"] == {"ok": 1}
        assert [entry["hash"] for entry in manifest["records"]] == ["aaa"]

    def test_compacting_empty_store(self, store_factory):
        store = store_factory()
        stats = store.compact()
        assert stats["n_kept"] == 0
        assert stats["n_lines_before"] == 0

    def test_jsonl_superseded_line_accounting(self, tmp_path):
        # The file keeps every appended line until compaction.
        store = ResultStore(tmp_path / "jstore")
        store.append(make_record("aaa", status="error"))
        store.append(make_record("aaa"))
        store.append(make_record("bbb"))
        assert store.n_physical_records() == 3
        stats = store.compact()
        assert stats == {
            "n_lines_before": 3,
            "n_kept": 2,
            "n_dropped_superseded": 1,
            "n_dropped_failed": 0,
        }

    def test_compacted_jsonl_is_valid(self, tmp_path):
        store = ResultStore(tmp_path / "jstore")
        for index in range(5):
            store.append(make_record(f"h{index}"))
            store.append(make_record(f"h{index}", label_fraction=0.3))
        store.compact()
        with store.results_path.open("r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == 5
        assert all(record["spec"]["label_fraction"] == 0.3 for record in records)


class TestJSONLCorruption:
    """Damage policy: tolerate a crashed append's tail, nothing else."""

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(make_record("aaa"))
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "bbb", "status": "o')  # killed mid-write
        reloaded = ResultStore(store.path)
        assert len(reloaded) == 1
        assert "aaa" in reloaded

    def test_append_repairs_truncated_tail(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(make_record("aaa"))
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "bbb", "status": "o')
        recovered = ResultStore(store.path)
        recovered.append(make_record("ccc"))
        # The partial line was truncated away, not extended: every line in
        # the file decodes and a fresh load sees exactly the good records.
        final = ResultStore(store.path)
        assert final.hashes() == ["aaa", "ccc"]
        assert final.n_physical_records() == 2

    def test_mid_file_corruption_raises_with_line_number(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(make_record("aaa"))
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "bbb", "status": "o\n')  # damaged
        store.append(make_record("ccc"))  # valid line AFTER the damage
        with pytest.raises(StoreCorruptionError, match="line 2"):
            ResultStore(store.path)

    def test_corrupted_fixture_names_file_and_line(self, tmp_path):
        directory = tmp_path / "fixture"
        directory.mkdir()
        lines = [
            json.dumps(make_record("aaa")),
            "}}} not json at all {{{",
            json.dumps(make_record("bbb")),
        ]
        (directory / "results.jsonl").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        with pytest.raises(StoreCorruptionError) as excinfo:
            ResultStore(directory)
        message = str(excinfo.value)
        assert "results.jsonl" in message
        assert "line 2" in message

    def test_non_object_line_is_corruption(self, tmp_path):
        directory = tmp_path / "fixture"
        directory.mkdir()
        (directory / "results.jsonl").write_text('[1, 2, 3]\n', encoding="utf-8")
        with pytest.raises(StoreCorruptionError, match="not an object"):
            ResultStore(directory)


class TestAtomicWrites:
    def test_manifest_write_leaves_no_temp_file(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.write_manifest()
        leftovers = [
            path
            for path in store.manifest_path.parent.iterdir()
            if path.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_crashed_manifest_write_keeps_previous(self, store_factory, monkeypatch):
        store = store_factory()
        store.append(make_record("aaa"))
        store.write_manifest()
        before = store.manifest_path.read_text(encoding="utf-8")

        import repro.runner.store as store_module

        def exploding_replace(src, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(store_module.os, "replace", exploding_replace)
        store.append(make_record("bbb"))
        with pytest.raises(OSError, match="simulated crash"):
            store.write_manifest()
        monkeypatch.undo()
        # The manifest on disk is still the previous complete document.
        assert store.manifest_path.read_text(encoding="utf-8") == before
        assert json.loads(before)["n_records"] == 1


def _append_worker(path: str, prefix: str, n_records: int) -> None:
    """Child-process entry point for the concurrent append tests."""
    store = ResultStore(path)
    for index in range(n_records):
        store.append(make_record(f"{prefix}{index:04d}"))


class TestConcurrentAppends:
    N_RECORDS = 50
    N_RACING = 300

    def test_two_process_append_smoke(self, store_factory, tmp_path):
        store = store_factory()
        context = multiprocessing.get_context()
        workers = [
            context.Process(
                target=_append_worker,
                args=(str(store.path), prefix, self.N_RECORDS),
            )
            for prefix in ("left-", "right-")
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        merged = store_factory()
        assert len(merged) == 2 * self.N_RECORDS
        # Every record survived intact — no interleaved partial writes.
        for prefix in ("left-", "right-"):
            for index in range(self.N_RECORDS):
                record = merged.get(f"{prefix}{index:04d}")
                assert record is not None
                assert record["status"] == "ok"


    def test_compaction_racing_appenders_keeps_every_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        context = multiprocessing.get_context()
        workers = [
            context.Process(
                target=_append_worker,
                args=(str(store.path), prefix, self.N_RACING),
            )
            for prefix in ("left-", "right-")
        ]
        for worker in workers:
            worker.start()
        while any(worker.is_alive() for worker in workers):
            store.compact()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert len(ResultStore(store.path)) == 2 * self.N_RACING


class TestMergeStores:
    def test_disjoint_union(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.append(make_record("aaa"))
        b.append(make_record("bbb"))
        destination = ResultStore(tmp_path / "merged")
        stats = merge_stores(destination, [a, b])
        assert stats["n_added"] == 2
        assert stats["n_identical"] == 0
        assert stats["n_conflicts"] == 0
        assert destination.hashes() == ["aaa", "bbb"]

    def test_identical_records_are_skipped_not_conflicts(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        record = make_record("aaa")
        a.append(record)
        b.append(record)
        destination = ResultStore(tmp_path / "merged")
        stats = merge_stores(destination, [a, b])
        assert stats["n_added"] == 1
        assert stats["n_identical"] == 1
        assert stats["n_conflicts"] == 0

    def test_latest_source_wins_and_conflict_reported(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.append(make_record("aaa", status="error"))
        b.append(make_record("aaa", status="ok"))
        destination = ResultStore(tmp_path / "merged")
        stats = merge_stores(destination, [a, b])
        assert stats["n_conflicts"] == 1
        assert stats["conflicts"] == [
            {"hash": "aaa", "old_status": "error", "new_status": "ok"}
        ]
        assert destination.get("aaa")["status"] == "ok"

    def test_existing_destination_records_are_overridden(self, tmp_path):
        destination = ResultStore(tmp_path / "merged")
        destination.append(make_record("aaa", label_fraction=0.1))
        source = ResultStore(tmp_path / "src")
        source.append(make_record("aaa", label_fraction=0.2))
        stats = merge_stores(destination, [source])
        assert stats["n_conflicts"] == 1
        assert destination.get("aaa")["spec"]["label_fraction"] == 0.2

    def test_merge_writes_manifest(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        source.append(make_record("aaa"))
        destination = ResultStore(tmp_path / "merged")
        merge_stores(destination, [source])
        manifest = destination.read_manifest()
        assert manifest["n_records"] == 1


class TestReviewRegressions:
    """Regressions for the store/executor correctness sweep findings."""

    def test_merge_ignores_timing_and_pid_differences(self, tmp_path):
        # Two honest executions of the same spec differ only in timing and
        # worker pid — that is NOT a conflict, and nothing is re-copied.
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        record = make_record("aaa")
        a.append(dict(record, timing={"total_seconds": 0.5}, worker_pid=11))
        b.append(dict(record, timing={"total_seconds": 0.9}, worker_pid=22))
        destination = ResultStore(tmp_path / "merged")
        stats = merge_stores(destination, [a, b])
        assert stats["n_conflicts"] == 0
        assert stats["n_identical"] == 1
        assert destination.get("aaa")["worker_pid"] == 11  # first copy kept

    def test_jsonl_backend_on_regular_file_fails_cleanly(self, tmp_path):
        # A leftover single-file (SQLite) store is not a store directory:
        # refuse it with the conversion hint instead of creating anything.
        target = tmp_path / "store.db"
        target.write_bytes(b"SQLite format 3\x00")
        with pytest.raises(ValueError, match="regular file.*repro merge"):
            ResultStore(target)
        assert target.read_bytes() == b"SQLite format 3\x00"

    def test_compact_preserves_concurrent_writers_records(self, store_factory):
        ours = store_factory()
        ours.append(make_record("aaa", status="error"))
        store_factory().append(make_record("bbb"))  # sibling shard writer
        stats = ours.compact(drop_failed=True)
        # compact() refreshes before rewriting: the sibling's record is
        # neither deleted nor miscounted.
        assert stats["n_kept"] == 1
        assert "bbb" in ours
        assert "bbb" in store_factory()

    def test_sibling_append_does_not_fuse_with_partial_tail(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(make_record("aaa"))
        sibling = ResultStore(tmp_path / "store")  # opened while file is clean
        # A third writer dies mid-append, leaving a partial final line.
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "dead", "status": "o')
        sibling.append(make_record("bbb"))
        # The sibling's record landed on its own line: it decodes intact
        # and only the dead writer's partial line is flagged on reload.
        lines = store.results_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[-1])["hash"] == "bbb"
        with pytest.raises(StoreCorruptionError, match="line 2"):
            ResultStore(tmp_path / "store")

    def test_parse_streams_without_slurping(self, tmp_path, monkeypatch):
        from pathlib import Path

        store = ResultStore(tmp_path / "store")
        for index in range(20):
            store.append(make_record(f"h{index}"))

        def forbidden(self):
            raise AssertionError("load must stream, not slurp the whole file")

        monkeypatch.setattr(Path, "read_bytes", forbidden)
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 20

    def test_compact_keeps_records_appended_after_load(
        self, tmp_path, monkeypatch
    ):
        # Compaction must not destroy a record a sibling committed after
        # this process's (re)load — simulated by disabling refresh so the
        # compacting handle never sees it before the rewrite.
        ours = ResultStore(tmp_path / "store")
        ours.append(make_record("aaa", status="error"))
        ResultStore(tmp_path / "store").append(make_record("rrr"))
        monkeypatch.setattr(ours, "refresh", lambda: None)
        ours.compact(drop_failed=True)
        survivors = ResultStore(tmp_path / "store")
        assert "rrr" in survivors  # sibling's record survived
        assert "aaa" not in survivors  # the dropped hash is gone
        assert "rrr" in ours  # ... and the compacting handle serves it

    def test_append_racing_a_compaction_reopens_the_new_file(
        self, tmp_path, monkeypatch
    ):
        # An appender that opened results.jsonl just before a compaction
        # renamed a rewritten file over it wakes up holding a lock on the
        # old inode; it must reopen the path, or its record is lost.
        import repro.runner.store as store_module

        store = ResultStore(tmp_path / "store")
        store.append(make_record("aaa"))
        store.append(make_record("aaa"))
        compactor = ResultStore(tmp_path / "store")
        real_flock = store_module.fcntl.flock
        raced = []

        def flock(descriptor, operation):
            if operation == store_module.fcntl.LOCK_SH and not raced:
                raced.append(True)
                compactor.compact()  # replaces the file `descriptor` opened
            real_flock(descriptor, operation)

        monkeypatch.setattr(store_module.fcntl, "flock", flock)
        store.append(make_record("bbb"))
        assert raced
        final = ResultStore(tmp_path / "store")
        assert final.hashes() == ["aaa", "bbb"]
        assert final.n_physical_records() == 2

    def test_corrupt_manifest_reads_as_absent(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa"))
        store.write_manifest()
        store.manifest_path.write_text('{"n_records": 1, "trunc', encoding="utf-8")
        assert store.read_manifest() is None  # regenerate instead of crash
        store.write_manifest()
        assert store.read_manifest()["n_records"] == 1


class TestAppendMany:
    """Batched appends: one write for N records, same semantics."""

    def test_batch_persists_and_indexes(self, store_factory):
        store = store_factory()
        store.append_many([make_record("aaa"), make_record("bbb"),
                           make_record("ccc")])
        assert len(store) == 3
        assert {"aaa", "bbb", "ccc"} <= set(store.hashes())
        reopened = store_factory()
        assert reopened.hashes() == store.hashes()
        assert reopened.get("bbb") == store.get("bbb")

    def test_empty_batch_is_a_noop(self, store_factory):
        store = store_factory()
        store.append_many([])
        assert len(store) == 0
        assert store.n_physical_records() == 0

    def test_missing_hash_fails_whole_batch_before_persisting(self, store_factory):
        store = store_factory()
        with pytest.raises(ValueError, match="hash"):
            store.append_many([make_record("aaa"), {"status": "ok"}])
        assert len(store) == 0
        assert store.n_physical_records() == 0

    def test_batch_upserts_latest_wins(self, store_factory):
        store = store_factory()
        store.append(make_record("aaa", status="error"))
        store.append_many([make_record("aaa"), make_record("bbb")])
        assert store.get("aaa")["status"] == "ok"
        assert store_factory().get("aaa")["status"] == "ok"

    def test_jsonl_batch_is_one_contiguous_write(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append_many([make_record(f"k{i}") for i in range(5)])
        lines = (store.results_path.read_bytes()).decode().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["hash"] == f"k{i}"
                   for i, line in enumerate(lines))

    def test_jsonl_batch_repairs_truncated_tail_first(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(make_record("aaa"))
        with store.results_path.open("ab") as handle:
            handle.write(b'{"hash": "partial", "status')  # crash mid-append
        recovering = ResultStore(tmp_path / "store")
        recovering.append_many([make_record("bbb"), make_record("ccc")])
        final = ResultStore(tmp_path / "store")
        assert sorted(final.hashes()) == ["aaa", "bbb", "ccc"]

"""Content-addressed result store: one directory of JSONL records.

One store holds the results of any number of grid executions, keyed purely
by run content hash — so a store can be shared between grids, worker
machines, or shard processes, and merging two stores is a set union.  A
store is a directory holding ``results.jsonl`` (one JSON record per line,
appended as runs finish) and ``manifest.json`` (record count, status tally,
one line per hash — the summary CI uploads as a build artifact).  The store
offers:

* a latest-wins in-memory index rebuilt from the file at open time;
* compaction (``repro gc``): one live record per hash, optionally dropping
  failed records so they re-execute;
* :func:`merge_stores` — the content-addressed union behind ``repro merge``.

Three properties make the layout safe for concurrent shard writers:

* every append is a **single** ``write(2)`` on an ``O_APPEND`` descriptor
  under a shared ``flock``, so the kernel serializes whole lines — two
  processes appending at once interleave records, never bytes within a
  record;
* compaction re-reads and rewrites the file under the exclusive ``flock``,
  so it never drops a record a sibling appended, and an appender that
  opened the file before the rewrite reopens the new one;
* the only tolerated damage is a truncated *final* line (a writer killed
  mid-append).  An undecodable line anywhere else means real corruption and
  raises :class:`StoreCorruptionError` naming the line, instead of silently
  dropping results.

When load detects a truncated tail, the first subsequent append repairs it:
the partial line is verified unchanged (under an exclusive ``flock``),
truncated away, and the fresh record appended — so the store never
accumulates a garbage line that a later load would flag as mid-file
corruption.  Writers that opened *before* the crash additionally check the
file ends with a newline before appending, so their records land on a
fresh line instead of fusing with the partial one: the damage stays
localized to the one bad line the corruption error names.

The store is the cache behind skip-if-cached resume: the executor asks
:meth:`ResultStore.__contains__` for every expanded run hash and only
executes the misses.  Append order carries no meaning.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.runner.spec import canonical_json

__all__ = [
    "ResultStore",
    "StoreCorruptionError",
    "merge_stores",
    "RESULTS_FILENAME",
    "MANIFEST_FILENAME",
]

STORE_VERSION = 1
RESULTS_FILENAME = "results.jsonl"
MANIFEST_FILENAME = "manifest.json"


class StoreCorruptionError(RuntimeError):
    """A store's persisted data is damaged beyond the tolerated tail case.

    Raised with the offending location in the message so the operator can
    inspect (and truncate or restore) the damaged region instead of the
    store silently dropping results — a dropped record would make the
    executor re-run the point or, worse, report a grid as smaller than it
    was.
    """


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` via a unique temp file + atomic rename.

    A crash mid-write leaves either the previous file or the new one, never
    a truncated half-document.  The temp name is unique per writer
    (``mkstemp``), so concurrent processes rewriting the same file cannot
    clobber each other's in-flight temp file — last rename wins, and every
    rename installs a complete document.
    """
    handle_fd, temporary = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle_fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def write_json_atomic(path: Path, payload: dict) -> Path:
    """Write ``payload`` as JSON via a temp file + atomic rename.

    Used for every manifest write: concurrent shard processes rewriting the
    shared store's manifest each install a complete document.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, [text.encode("utf-8")])
    return path


def _encode(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class ResultStore:
    """Map from run content hash to result record, persisted as JSONL.

    Opening a store reads every persisted record into an in-memory index;
    appends go straight to ``results.jsonl`` and update the index.  A record
    written twice for the same hash keeps the latest version — re-running
    with ``--force`` simply shadows the old one.

    Parameters
    ----------
    path:
        Store directory, created when absent.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise ValueError(
                f"result store {self.path} is a regular file, not a "
                "directory: SQLite stores were removed, so run `repro merge "
                f"<dir> {self.path}` with the previous release to convert it"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        self.results_path = self.path / RESULTS_FILENAME
        self.manifest_path = self.path / MANIFEST_FILENAME
        # Set when a load found a truncated final line: the byte offset
        # where the partial line starts and its content, so the next append
        # can verify and truncate it away instead of extending it.
        self._truncated_tail: tuple[int, bytes] | None = None
        self._index, _ = self._read()

    # ------------------------------------------------------------------ read
    def _parse_lines(self) -> Iterator[dict]:
        """Yield persisted records in file order, policing corruption.

        Only an undecodable *final* line is tolerated (crash mid-append);
        a bad line with valid data after it raises, because silently
        skipping it would drop a result that other lines prove was once
        written correctly.

        Streams the file line by line (stores hold thousands of records,
        each embedding a compatibility matrix — slurping the whole file
        would double-buffer it in RAM on every load/refresh), keeping only
        the current candidate bad tail in memory.
        """
        if not self.results_path.exists():
            return
        # (line number, byte offset, raw bytes to EOF, error detail) of an
        # undecodable line that MAY be a tolerated truncated tail — unless
        # a non-empty line follows it.
        bad: tuple[int, int, bytes, str] | None = None
        offset = 0
        number = 0
        with self.results_path.open("rb") as handle:
            for raw in handle:
                number += 1
                line_offset = offset
                offset += len(raw)
                stripped = raw.strip()
                if not stripped:
                    if bad is not None:
                        # Trailing blank bytes ride along with the bad tail
                        # so the repair truncation covers them too.
                        bad = (bad[0], bad[1], bad[2] + raw, bad[3])
                    continue
                if bad is not None:
                    bad_number, _, _, detail = bad
                    raise StoreCorruptionError(
                        f"{self.results_path}: undecodable JSONL at line "
                        f"{bad_number} ({detail}); lines after it are "
                        "intact, so this is mid-file corruption, not a "
                        "truncated append — inspect the file (or delete "
                        "that line) before reusing the store"
                    )
                try:
                    record = json.loads(stripped.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    detail = getattr(exc, "msg", str(exc))
                    bad = (number, line_offset, raw, detail)
                    continue
                if not isinstance(record, dict):
                    raise StoreCorruptionError(
                        f"{self.results_path}: line {number} is valid JSON "
                        f"but not an object ({type(record).__name__})"
                    )
                yield record
        if bad is not None:
            # Truncated trailing line: a writer died mid-append.
            self._truncated_tail = (bad[1], bad[2])

    def _read(self) -> tuple[dict[str, dict], int]:
        """Parse the file: the latest-wins hash -> record index and the
        physical record count (superseded versions included)."""
        self._truncated_tail = None  # re-assessed by the parse below
        index: dict[str, dict] = {}
        count = 0
        for record in self._parse_lines():
            count += 1
            key = record.get("hash")
            if key:
                index[key] = record
        return index, count

    def refresh(self) -> None:
        """Re-read the file, picking up records other processes appended."""
        self._index, _ = self._read()

    # ------------------------------------------------------------ dict-like
    def __contains__(self, run_hash: str) -> bool:
        return run_hash in self._index

    def __len__(self) -> int:
        return len(self._index)

    def get(self, run_hash: str) -> dict | None:
        """Return the record for ``run_hash`` (None when absent)."""
        return self._index.get(run_hash)

    def hashes(self) -> list[str]:
        """Sorted content hashes present in the store."""
        return sorted(self._index)

    def records(self) -> list[dict]:
        """All records, sorted by hash for a deterministic listing."""
        return [self._index[key] for key in self.hashes()]

    def n_physical_records(self) -> int:
        """Persisted record count, superseded versions included."""
        return sum(1 for _ in self._parse_lines())

    # ---------------------------------------------------------------- write
    def _open_locked(self, flags: int, exclusive: bool) -> int:
        """Open ``results.jsonl`` and ``flock`` it; returns the descriptor.

        Compaction replaces the file while holding the exclusive lock, so a
        writer that opened the path before the rename can wake up holding a
        lock on the old, unlinked inode; it then reopens the path instead of
        writing where no reader looks.  (Closing the descriptor releases
        the lock.)
        """
        while True:
            descriptor = os.open(self.results_path, flags | os.O_CREAT, 0o644)
            if fcntl is None:
                return descriptor
            fcntl.flock(descriptor, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                if os.path.samestat(os.fstat(descriptor), os.stat(self.results_path)):
                    return descriptor
            except FileNotFoundError:
                pass
            os.close(descriptor)

    def _repair_truncated_tail(self) -> None:
        """Truncate the partial final line a load detected, if still there.

        Only repairs when the file still ends with exactly the bytes seen at
        load time — if another process touched the file since, leave it
        alone and let the next load re-assess.  The verify-and-truncate
        pair runs under an exclusive ``flock`` so two recovering writers
        cannot race each other: without it, one could truncate *after* the
        other already appended a fresh record past the damaged tail,
        silently deleting it.
        """
        tail_offset, tail_bytes = self._truncated_tail
        self._truncated_tail = None
        descriptor = self._open_locked(os.O_RDWR, exclusive=True)
        try:
            size = os.fstat(descriptor).st_size
            if size != tail_offset + len(tail_bytes):
                return
            os.lseek(descriptor, tail_offset, os.SEEK_SET)
            if os.read(descriptor, len(tail_bytes)) != tail_bytes:
                return
            os.ftruncate(descriptor, tail_offset)
        finally:
            os.close(descriptor)

    def _append_payload(self, data: bytes) -> None:
        if self._truncated_tail is not None:
            self._repair_truncated_tail()
        # A single O_APPEND write is atomic with respect to other appenders
        # on local filesystems: concurrent shard processes interleave whole
        # records, never partial lines.  The lock is *shared*: appends run
        # concurrently with each other, but never overlap a repairer's
        # verify-and-truncate or a compaction's rewrite — without it, those
        # could chop off or drop a record this append just committed.
        descriptor = self._open_locked(os.O_RDWR | os.O_APPEND, exclusive=False)
        try:
            # Guard against a sibling writer's crash mid-append: if the file
            # does not end with a newline, start on a fresh line so this
            # record never fuses with the partial one (which stays isolated
            # for the corruption check / tail repair to deal with).  A racing
            # proper append in between merely yields a harmless blank line.
            size = os.fstat(descriptor).st_size
            if (
                size > 0
                and hasattr(os, "pread")
                and os.pread(descriptor, 1, size - 1) != b"\n"
            ):
                data = b"\n" + data
            written = os.write(descriptor, data)
        finally:
            os.close(descriptor)
        if written != len(data):  # pragma: no cover - local fs writes whole
            raise OSError(
                f"short append to {self.results_path}: {written}/{len(data)} bytes"
            )

    def append(self, record: dict) -> None:
        """Persist one result record (must carry a ``"hash"`` key)."""
        key = record.get("hash")
        if not key:
            raise ValueError("result record needs a 'hash' key")
        self._append_payload(_encode(record))
        self._index[key] = record

    def append_many(self, records: list[dict]) -> None:
        """Persist a batch of records: one lock, one ``write(2)`` for all N.

        Validation happens before anything is persisted, so a bad record
        (missing ``"hash"``) fails the whole batch instead of leaving it
        half-written.  The executor uses this to flush a finished worker
        batch as one contiguous write; concurrent shard writers interleave
        at batch granularity (still never within a line).
        """
        for record in records:
            if not record.get("hash"):
                raise ValueError("result record needs a 'hash' key")
        if not records:
            return
        self._append_payload(b"".join(_encode(record) for record in records))
        for record in records:
            self._index[record["hash"]] = record

    def status_counts(self) -> dict[str, int]:
        """Tally of record statuses (``ok`` / ``error`` / ``timeout``)."""
        counts: dict[str, int] = {}
        for record in self._index.values():
            status = record.get("status", "unknown")
            counts[status] = counts.get(status, 0) + 1
        return counts

    def write_manifest(self, extra: dict | None = None, refresh: bool = True) -> Path:
        """(Re)write the manifest summarizing the store's contents.

        With ``refresh=True`` (the default) the index is first re-read from
        the file, so a manifest written at the end of one shard's execution
        covers every record other shards persisted in the meantime, not
        just this process's view.  The re-read and the write share one
        exclusive ``flock``, so concurrent shards' manifest writes happen
        one after another, each after its writer's last append: the last
        one written covers the whole store.  The write itself goes through
        a temp file + atomic rename — a crash mid-write leaves the previous
        manifest intact, never a truncated one.
        """
        if not refresh:
            return self._write_manifest(extra)
        descriptor = self._open_locked(os.O_RDWR, exclusive=True)
        try:
            self.refresh()
            return self._write_manifest(extra)
        finally:
            os.close(descriptor)

    def _write_manifest(self, extra: dict | None = None) -> Path:
        entries = []
        for key in self.hashes():
            record = self._index[key]
            spec = record.get("spec", {})
            entries.append(
                {
                    "hash": key,
                    "status": record.get("status"),
                    "estimator": spec.get("estimator"),
                    "propagator": spec.get("propagator"),
                    "label_fraction": spec.get("label_fraction"),
                    "repetition": spec.get("repetition"),
                    "graph": spec.get("graph", {}).get("name")
                    or spec.get("graph", {}).get("kind"),
                }
            )
        manifest = {
            "version": STORE_VERSION,
            "n_records": len(self._index),
            "status_counts": self.status_counts(),
            "records": entries,
        }
        if extra:
            manifest.update(extra)
        return write_json_atomic(self.manifest_path, manifest)

    def compact(self, drop_failed: bool = False) -> dict:
        """Garbage-collect the store: one record per hash, manifest refreshed.

        The file accumulates superseded lines — every ``--force`` re-run and
        every retried failure appends a new record that shadows the
        previous one for the same hash; compaction rewrites it with only
        the latest record per hash.  With ``drop_failed=True``, records
        whose status is not ``"ok"`` are removed entirely, so the
        corresponding runs re-execute on the next grid execution instead of
        surfacing stale errors.

        The file is re-read and rewritten under the exclusive ``flock``, so
        a record a concurrent shard writer appended after this process's
        last load survives, and the rewrite lands through a temp file +
        atomic rename: a crash mid-compaction leaves either the old or the
        new file, never a mix.

        Returns a stats dict: ``n_lines_before``, ``n_kept``,
        ``n_dropped_superseded``, ``n_dropped_failed``.
        """
        descriptor = self._open_locked(os.O_RDWR, exclusive=True)
        try:
            latest, n_before = self._read()
            kept = {
                key: latest[key]
                for key in sorted(latest)
                if not drop_failed or latest[key].get("status") == "ok"
            }
            _write_atomic(self.results_path, map(_encode, kept.values()))
            self._truncated_tail = None
            self._index = kept
            self._write_manifest()
        finally:
            os.close(descriptor)
        return {
            "n_lines_before": n_before,
            "n_kept": len(kept),
            "n_dropped_superseded": n_before - len(latest),
            "n_dropped_failed": len(latest) - len(kept),
        }

    def read_manifest(self) -> dict | None:
        """Load the manifest if one was written and parses.

        The manifest is derived data, fully reconstructible from the
        records — a damaged one (e.g. truncated by a crash predating the
        atomic-rename writes) reads as absent, so callers regenerate it
        instead of crashing.
        """
        if not self.manifest_path.exists():
            return None
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ResultStore({str(self.path)!r}, n_records={len(self)})"


def _record_identity(record: dict) -> tuple:
    """The deterministic identity of a record, for merge conflict detection.

    Timing and worker pid legitimately differ between two honest
    executions of the same spec; a "conflict" is only a disagreement on
    the fields that determinism guarantees (spec, status, result, error).
    """
    return tuple(
        canonical_json(record.get(field))
        for field in ("hash", "spec", "status", "result", "error")
    )


def merge_stores(destination: ResultStore, sources: list[ResultStore]) -> dict:
    """Union ``sources`` into ``destination``, latest-wins, reporting conflicts.

    Records are content-addressed, so two stores holding the same hash
    *should* agree on its deterministic payload (spec, status, result);
    when they do, the merge skips the copy — nondeterministic timing and
    worker-pid differences between honest re-executions are not conflicts.
    When the deterministic payloads differ (a ``--force`` re-run, a
    retried failure, a records-differ bug), the incoming record wins —
    sources are applied in order, each overriding the destination and
    earlier sources — and the hash lands in the conflict report so the
    caller can audit.

    Returns ``{"n_sources", "n_added", "n_identical", "n_conflicts",
    "conflicts": [{"hash", "old_status", "new_status"}, ...]}``; the
    destination manifest is rewritten at the end.
    """
    n_added = 0
    n_identical = 0
    conflicts: list[dict] = []
    for source in sources:
        for record in source.records():
            key = record["hash"]
            existing = destination.get(key)
            if existing is None:
                destination.append(record)
                n_added += 1
            elif _record_identity(existing) == _record_identity(record):
                n_identical += 1
            else:
                conflicts.append(
                    {
                        "hash": key,
                        "old_status": existing.get("status"),
                        "new_status": record.get("status"),
                    }
                )
                destination.append(record)
    destination.write_manifest(refresh=False)
    return {
        "n_sources": len(sources),
        "n_added": n_added,
        "n_identical": n_identical,
        "n_conflicts": len(conflicts),
        "conflicts": conflicts,
    }

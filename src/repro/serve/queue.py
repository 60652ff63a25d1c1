"""Durable per-session delta queues: acked writes survive a worker kill.

The serving tier acknowledges a delta as soon as it is **durable and
applied to the graph**, before the (much slower) belief propagation runs.
That promise only holds across a ``kill -9`` if the delta is on disk first:
:class:`DeltaQueue` keeps one append-only JSONL file per served session,
written with the same single-``write(2)``-on-``O_APPEND`` + shared-``flock``
discipline as the runner's JSONL store backend — concurrent appenders
interleave whole records, never bytes, and the only tolerated damage is a
torn *final* line (a writer killed mid-append, which by definition was
never acknowledged).

The queue is the session's **redo log**: it records every delta accepted
since the session's load, in acceptance order.  Recovery (a router
re-placing the session on a fresh worker) replays the file on top of a
reload-from-source and lands on the same graph version the last
acknowledgement named.

Records are ``{"seq": n, "delta": {...}}`` with an optional client-supplied
``"id"``.  Ids make retries idempotent: a router that re-sends a delta
after a worker died mid-request cannot double-apply it — the queue
remembers recently seen ids (rebuilt from the file on replay) and reports
the original sequence number instead of appending again.  The dedupe set
is LRU-bounded (``max_seen_ids``) so a long-lived session cannot grow it
without limit: retries arrive within seconds of the original, so evicting
the oldest ids is safe, and evictions are counted on the
``repro_queue_seen_ids_evicted_total`` metric in case a deployment ever
needs a bigger cap.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path

from repro import obs

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["DEFAULT_MAX_SEEN_IDS", "DeltaQueue", "QueueCorruptionError"]

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]")

# Default LRU cap on the per-session id-dedupe map.  Ids exist to absorb
# router retries, which follow the original request within seconds — by
# the time 10k newer deltas have landed, a duplicate of an older one can
# only be a replayed log (handled separately), not a retry.
DEFAULT_MAX_SEEN_IDS = 10_000


class QueueCorruptionError(RuntimeError):
    """A queue file is damaged somewhere other than its final line."""


def _filename(session: str) -> str:
    # Session names are validated by the service (non-empty, no '/') but the
    # queue must never trust them as raw path components.
    return _SAFE_NAME.sub("_", session) + ".deltas.jsonl"


class _SessionLog:
    """In-memory view of one session's on-disk queue file."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.next_seq = 1
        self.seen_ids: dict[str, int] = {}  # client id -> seq it landed as
        # (byte offset, bytes to EOF) of a torn final line replay() found,
        # repaired by the next append instead of being extended.
        self.truncated_tail: tuple[int, bytes] | None = None


class DeltaQueue:
    """Directory of per-session JSONL redo logs.

    Parameters
    ----------
    directory:
        Where the ``<session>.deltas.jsonl`` files live.  Created on
        demand.  A router shares one directory across all its workers, so
        a session's log survives the worker that wrote it.
    max_seen_ids:
        LRU cap on each session's in-memory id-dedupe map (the on-disk
        log is never touched).  ``None`` disables the bound.
    """

    def __init__(self, directory, max_seen_ids: int | None = DEFAULT_MAX_SEEN_IDS) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if max_seen_ids is not None and max_seen_ids < 1:
            raise ValueError(f"max_seen_ids must be >= 1, got {max_seen_ids}")
        self.max_seen_ids = max_seen_ids
        self._logs: dict[str, _SessionLog] = {}
        self._lock = threading.Lock()
        self._c_trimmed = obs.metrics().counter(
            "repro_queue_seen_ids_evicted_total",
            "Delta ids dropped from the LRU-bounded dedupe map.",
        )

    def _trim_seen_ids(self, log: _SessionLog) -> None:
        """Drop oldest ids past the cap (dicts iterate in insertion order)."""
        if self.max_seen_ids is None:
            return
        excess = len(log.seen_ids) - self.max_seen_ids
        if excess <= 0:
            return
        for delta_id in list(log.seen_ids)[:excess]:
            del log.seen_ids[delta_id]
        self._c_trimmed.inc(excess)

    # ---------------------------------------------------------------- paths
    def path_for(self, session: str) -> Path:
        return self.directory / _filename(session)

    def _log(self, session: str) -> _SessionLog:
        with self._lock:
            log = self._logs.get(session)
            if log is None:
                log = _SessionLog(self.path_for(session))
                self._logs[session] = log
            return log

    # --------------------------------------------------------------- append
    def append(self, session: str, delta: dict, delta_id: str | None = None) -> int:
        """Durably append one delta record; returns its sequence number.

        The record is on disk (one ``O_APPEND`` write under a shared
        ``flock``) before this returns — the caller may acknowledge the
        delta afterwards.  A ``delta_id`` already appended returns the
        sequence number it originally landed as, without writing again.
        """
        log = self._log(session)
        if delta_id is not None:
            delta_id = str(delta_id)
        with self._lock:
            if delta_id is not None and delta_id in log.seen_ids:
                # LRU refresh: a retried id stays hot while it is in use.
                seq = log.seen_ids.pop(delta_id)
                log.seen_ids[delta_id] = seq
                return seq
            if log.truncated_tail is not None:
                self._repair_truncated_tail(log)
            seq = log.next_seq
            record: dict = {"seq": seq, "delta": delta}
            if delta_id is not None:
                record["id"] = delta_id
            payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            descriptor = os.open(
                log.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                if fcntl is not None:
                    fcntl.flock(descriptor, fcntl.LOCK_SH)
                # Start on a fresh line if a killed sibling left a torn tail
                # (same guard as the JSONL store backend) — the damage stays
                # confined to the one line replay already tolerates.
                size = os.fstat(descriptor).st_size
                if (
                    size > 0
                    and hasattr(os, "pread")
                    and os.pread(descriptor, 1, size - 1) != b"\n"
                ):
                    payload = b"\n" + payload
                written = os.write(descriptor, payload)
            finally:
                os.close(descriptor)
            if written != len(payload):  # pragma: no cover - local fs
                raise OSError(
                    f"short append to {log.path}: {written}/{len(payload)} bytes"
                )
            log.next_seq = seq + 1
            if delta_id is not None:
                log.seen_ids[delta_id] = seq
                self._trim_seen_ids(log)
            return seq

    @staticmethod
    def _repair_truncated_tail(log: _SessionLog) -> None:
        """Truncate the torn final line replay() saw, if still untouched.

        The torn record was by definition never acknowledged (the write(2)
        did not complete), so removing it loses nothing.  Verify-and-
        truncate runs under an exclusive ``flock`` so a repairer cannot chop
        off a record a concurrent appender just committed past the tail.
        """
        tail_offset, tail_bytes = log.truncated_tail
        log.truncated_tail = None
        descriptor = os.open(log.path, os.O_RDWR)
        try:
            if fcntl is not None:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
            size = os.fstat(descriptor).st_size
            if size != tail_offset + len(tail_bytes):
                return
            os.lseek(descriptor, tail_offset, os.SEEK_SET)
            if os.read(descriptor, len(tail_bytes)) != tail_bytes:
                return
            os.ftruncate(descriptor, tail_offset)
        finally:
            os.close(descriptor)

    # --------------------------------------------------------------- replay
    def replay(self, session: str) -> list[tuple[int, dict]]:
        """Read a session's redo log: ``[(seq, delta_dict), ...]`` in order.

        Tolerates exactly one undecodable *final* line (a writer killed
        mid-append — that delta was never acknowledged); an undecodable
        line followed by valid records raises
        :class:`QueueCorruptionError`, because silently skipping it would
        drop an acknowledged write.  Also primes the in-memory state so
        subsequent :meth:`append` calls continue the sequence and keep
        id-dedupe working across a reload.
        """
        log = self._log(session)
        entries: list[tuple[int, dict]] = []
        seen: dict[str, int] = {}
        path = log.path
        truncated: tuple[int, bytes] | None = None
        if path.exists():
            # (line number, byte offset, raw bytes to EOF, error detail) of
            # an undecodable line that MAY be a tolerated torn tail.
            bad: tuple[int, int, bytes, str] | None = None
            offset = 0
            with path.open("rb") as handle:
                for number, raw in enumerate(handle, start=1):
                    line_offset = offset
                    offset += len(raw)
                    stripped = raw.strip()
                    if not stripped:
                        if bad is not None:
                            bad = (bad[0], bad[1], bad[2] + raw, bad[3])
                        continue
                    if bad is not None:
                        raise QueueCorruptionError(
                            f"{path}: undecodable record at line {bad[0]} "
                            f"({bad[3]}) with intact records after it — "
                            "mid-file corruption, not a torn append"
                        )
                    try:
                        record = json.loads(stripped.decode("utf-8"))
                        seq = int(record["seq"])
                        delta = record["delta"]
                        if not isinstance(delta, dict):
                            raise ValueError("delta payload is not an object")
                    except (ValueError, KeyError, TypeError,
                            UnicodeDecodeError) as exc:
                        bad = (number, line_offset, raw, str(exc))
                        continue
                    entries.append((seq, delta))
                    if "id" in record:
                        seen[str(record["id"])] = seq
            if bad is not None:
                truncated = (bad[1], bad[2])
        with self._lock:
            log.next_seq = (entries[-1][0] + 1) if entries else 1
            log.seen_ids = seen
            # The file may hold more ids than the cap allows in memory;
            # keep the most recent ones (insertion order == log order).
            self._trim_seen_ids(log)
            log.truncated_tail = truncated
        return entries

    # ------------------------------------------------------------ lifecycle
    def drop(self, session: str) -> None:
        """Delete a session's redo log (fresh load or explicit unload)."""
        with self._lock:
            log = self._logs.pop(session, None)
        path = log.path if log is not None else self.path_for(session)
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def depth(self, session: str) -> int:
        """Records appended so far (next_seq - 1) per the in-memory view."""
        return self._log(session).next_seq - 1

    def seen(self, session: str, delta_id) -> int | None:
        """The sequence number a client id already landed as, or None.

        Only consults the in-memory view (primed by :meth:`replay` after a
        restart) — the dedupe check must not cost a file scan per delta.
        """
        log = self._log(session)
        with self._lock:
            seq = log.seen_ids.pop(str(delta_id), None)
            if seq is not None:
                log.seen_ids[str(delta_id)] = seq  # LRU refresh
            return seq

    def sessions(self) -> list[str]:
        """Session names with a redo log on disk (filename-mangled form)."""
        suffix = ".deltas.jsonl"
        return sorted(
            entry.name[: -len(suffix)]
            for entry in self.directory.iterdir()
            if entry.name.endswith(suffix)
        )

    def has_log(self, session: str) -> bool:
        return self.path_for(session).exists()

"""Graph loading shared by the serving layer and ``repro stream --from-store``.

A served (or replayed) graph comes from one of two places:

* a ``.npz`` bundle written by :func:`repro.graph.io.save_graph_npz` — the
  interchange format of the whole CLI;
* a **runner-store record**: every record persisted by ``repro run`` embeds
  the full :class:`~repro.runner.spec.RunSpec`, whose graph config dict is
  enough to rebuild the exact graph the run executed on (same generator
  seed, same dataset scale).  :func:`graph_from_store` resolves a content
  hash (unique prefixes accepted) to its record and materializes that graph
  through :func:`repro.runner.spec.build_graph`.

Keeping this in one module means ``repro serve`` and
``repro stream --from-store`` cannot drift: both reconstruct a grid's graph
the same way.
"""

from __future__ import annotations

from pathlib import Path

from repro.graph.graph import Graph
from repro.graph.io import load_graph_npz
from repro.runner.spec import build_graph
from repro.runner.store import ResultStore

__all__ = [
    "GraphSourceError",
    "graph_from_store",
    "load_serving_graph",
    "resolve_store_record",
]


class GraphSourceError(ValueError):
    """The requested graph source does not resolve to a graph."""


def resolve_store_record(store: ResultStore | str | Path, run_hash: str) -> dict:
    """Find the store record whose content hash matches ``run_hash``.

    ``run_hash`` may be any unambiguous prefix of a stored SHA-256 hash
    (humans paste the first dozen characters from ``repro report``); an
    ambiguous or unknown prefix raises :class:`GraphSourceError` naming the
    candidates.
    """
    if not isinstance(store, ResultStore):
        path = Path(store)
        if not path.exists():
            raise GraphSourceError(f"result store not found: {path}")
        try:
            store = ResultStore(path)
        except ValueError as exc:  # a regular file, not a store directory
            raise GraphSourceError(str(exc)) from exc
    run_hash = str(run_hash)
    if not run_hash:
        raise GraphSourceError("empty run hash")
    matches = [key for key in store.hashes() if key.startswith(run_hash)]
    if not matches:
        raise GraphSourceError(
            f"no record with hash prefix {run_hash!r} in {store.results_path} "
            f"({len(store)} records)"
        )
    if len(matches) > 1:
        preview = ", ".join(key[:16] + "…" for key in matches[:4])
        raise GraphSourceError(
            f"hash prefix {run_hash!r} is ambiguous in {store.results_path}: "
            f"{len(matches)} matches ({preview})"
        )
    return store.get(matches[0])


def graph_from_store(
    store: ResultStore | str | Path, run_hash: str
) -> tuple[Graph, dict]:
    """Rebuild the graph a stored run executed on; returns ``(graph, record)``.

    The record's embedded spec carries the graph *config* (generator
    parameters, dataset name, or an ``.npz`` path), not the graph bytes —
    reconstruction is deterministic for ``generate``/``dataset`` kinds and
    re-reads the file for ``npz`` kind.
    """
    record = resolve_store_record(store, run_hash)
    spec = record.get("spec") or {}
    config = spec.get("graph")
    if not isinstance(config, dict):
        raise GraphSourceError(
            f"record {record.get('hash', '?')[:16]}… carries no graph config"
        )
    try:
        return build_graph(config), record
    except Exception as exc:
        raise GraphSourceError(
            f"could not rebuild graph for record "
            f"{record.get('hash', '?')[:16]}…: {exc}"
        ) from exc


def load_serving_graph(
    path=None,
    store=None,
    run_hash: str | None = None,
) -> Graph:
    """Materialize a graph from exactly one source: ``path`` or ``store``+hash."""
    if path is not None:
        if store is not None or run_hash is not None:
            raise GraphSourceError("pass either path or store+hash, not both")
        path = Path(path)
        if not path.exists():
            raise GraphSourceError(f"graph file not found: {path}")
        try:
            return load_graph_npz(path)
        except Exception as exc:
            raise GraphSourceError(f"could not read graph file {path}: {exc}") from exc
    if store is None or run_hash is None:
        raise GraphSourceError(
            "a graph source needs a .npz path, or a result store plus a "
            "record hash"
        )
    graph, _ = graph_from_store(store, run_hash)
    return graph

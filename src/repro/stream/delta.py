"""Graph deltas: the unit of change of an evolving graph.

A :class:`GraphDelta` describes one batch of mutations — edges added or
removed, nodes appended, labels revealed as new seeds — and
:func:`apply_delta` turns it into a new canonical CSR adjacency plus the
bookkeeping the operator cache needs (per-node degree changes, the set of
touched nodes).  Deltas round-trip through plain dicts, and a JSONL file of
one delta per line (the ``repro stream`` event format) is read and written
by :func:`read_delta_stream` / :func:`write_delta_stream`.

Application is *strict* by default: adding an edge that already exists,
removing one that does not, self-loops and out-of-range endpoints all raise.
Strictness is what guarantees that incrementally maintained adjacencies stay
bitwise-identical to a batch rebuild from the full edge list (binary graphs
clamp duplicate edges, so a tolerated duplicate add would silently diverge).
Pass ``strict=False`` for noisy real-world streams: duplicate adds then sum
weights and removals of absent edges become no-ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_integer, check_integers

__all__ = [
    "GraphDelta",
    "DeltaApplication",
    "apply_delta",
    "read_delta_stream",
    "write_delta_stream",
]


def _edge_array(edges, name: str) -> np.ndarray:
    """Normalize any integer edge input into an ``(p, 2)`` int64 array."""
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    edges = check_integers(edges, name)
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {edges.shape}")
    return edges


@dataclass
class GraphDelta:
    """One batch of mutations to an evolving graph.

    Attributes
    ----------
    add_edges / add_weights:
        Undirected edges to insert (weights default to 1.0).  Edges may
        reference nodes introduced by :attr:`add_nodes` in the same delta.
    remove_edges:
        Undirected edges to delete (their full current weight is removed).
    add_nodes:
        Number of nodes appended to the graph; new nodes receive the next
        free ids in order, so node ids are stable across the stream.
    node_labels:
        Optional ground-truth label per added node (``-1`` = unknown), used
        by the replay scenario for scoring; length must equal
        :attr:`add_nodes`.
    reveal_nodes / reveal_labels:
        Nodes whose label becomes visible to the algorithms (new seeds).
    """

    add_edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    add_weights: np.ndarray | None = None
    remove_edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    add_nodes: int = 0
    node_labels: np.ndarray | None = None
    reveal_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    reveal_labels: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self) -> None:
        self.add_edges = _edge_array(self.add_edges, "add_edges")
        self.remove_edges = _edge_array(self.remove_edges, "remove_edges")
        self.add_nodes = check_integer(self.add_nodes, "add_nodes")
        if self.add_nodes < 0:
            raise ValueError(f"add_nodes must be >= 0, got {self.add_nodes}")
        if self.add_weights is not None:
            self.add_weights = np.asarray(self.add_weights, dtype=np.float64).ravel()
            if self.add_weights.shape[0] != self.add_edges.shape[0]:
                raise ValueError(
                    f"{self.add_weights.shape[0]} weights for "
                    f"{self.add_edges.shape[0]} added edges"
                )
            if not np.isfinite(self.add_weights).all():
                raise ValueError("added edge weights must be finite")
        if self.node_labels is not None:
            self.node_labels = check_integers(self.node_labels, "node_labels").ravel()
            if self.node_labels.shape[0] != self.add_nodes:
                raise ValueError(
                    f"{self.node_labels.shape[0]} node labels for "
                    f"{self.add_nodes} added nodes"
                )
        self.reveal_nodes = check_integers(self.reveal_nodes, "reveal nodes").ravel()
        self.reveal_labels = check_integers(self.reveal_labels, "reveal labels").ravel()
        if self.reveal_nodes.shape[0] != self.reveal_labels.shape[0]:
            raise ValueError(
                f"{self.reveal_nodes.shape[0]} reveal nodes for "
                f"{self.reveal_labels.shape[0]} reveal labels"
            )

    # ------------------------------------------------------------------ sizes
    @property
    def n_changed_edges(self) -> int:
        """Edges touched by this delta (insertions plus deletions)."""
        return int(self.add_edges.shape[0] + self.remove_edges.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when the delta mutates nothing at all."""
        return (
            self.n_changed_edges == 0
            and self.add_nodes == 0
            and self.reveal_nodes.shape[0] == 0
        )

    def summary(self) -> str:
        """One-line human-readable description (used by CLI progress lines)."""
        parts = []
        if self.add_edges.shape[0]:
            parts.append(f"+{self.add_edges.shape[0]} edges")
        if self.remove_edges.shape[0]:
            parts.append(f"-{self.remove_edges.shape[0]} edges")
        if self.add_nodes:
            parts.append(f"+{self.add_nodes} nodes")
        if self.reveal_nodes.shape[0]:
            parts.append(f"{self.reveal_nodes.shape[0]} labels revealed")
        return ", ".join(parts) if parts else "empty delta"

    # ------------------------------------------------------------------- dict
    @classmethod
    def from_dict(cls, record: dict) -> "GraphDelta":
        """Build a delta from the JSONL event record format."""
        unknown = set(record) - {
            "add_edges", "add_weights", "remove_edges", "add_nodes",
            "node_labels", "reveal",
        }
        if unknown:
            raise ValueError(f"unknown delta fields: {sorted(unknown)}")
        reveal = record.get("reveal") or []
        reveal_nodes = [pair[0] for pair in reveal]
        reveal_labels = [pair[1] for pair in reveal]
        return cls(
            add_edges=record.get("add_edges"),
            add_weights=record.get("add_weights"),
            remove_edges=record.get("remove_edges"),
            add_nodes=record.get("add_nodes", 0),
            node_labels=record.get("node_labels"),
            reveal_nodes=reveal_nodes,
            reveal_labels=reveal_labels,
        )

    def to_dict(self) -> dict:
        """JSON-serializable event record (inverse of :meth:`from_dict`)."""
        record: dict = {}
        if self.add_edges.shape[0]:
            record["add_edges"] = self.add_edges.tolist()
        if self.add_weights is not None:
            record["add_weights"] = self.add_weights.tolist()
        if self.remove_edges.shape[0]:
            record["remove_edges"] = self.remove_edges.tolist()
        if self.add_nodes:
            record["add_nodes"] = self.add_nodes
        if self.node_labels is not None:
            record["node_labels"] = self.node_labels.tolist()
        if self.reveal_nodes.shape[0]:
            record["reveal"] = [
                [int(node), int(label)]
                for node, label in zip(self.reveal_nodes, self.reveal_labels)
            ]
        return record


@dataclass
class DeltaApplication:
    """Outcome of applying one delta to an adjacency matrix.

    Attributes
    ----------
    adjacency:
        New canonical CSR adjacency (the input matrix is never mutated).
    delta_degrees:
        Per-node weighted-degree change, length ``n_after`` — the partial
        refresh :meth:`repro.graph.operators.GraphOperators.evolve` consumes.
    touched_nodes:
        Sorted unique ids of nodes incident to a changed edge or appended by
        the delta: the frontier at which warm-started residuals are seeded.
    n_added_edges / n_removed_edges:
        Structural changes actually performed (lenient mode may drop
        removals of absent edges).
    edge_change:
        ``ΔW`` as performed, in COO form: both orientations of each added
        edge at its weight and of each removed edge at minus its current
        weight; dropped lenient removals are absent.
    """

    adjacency: sp.csr_matrix
    delta_degrees: np.ndarray
    touched_nodes: np.ndarray
    n_added_edges: int
    n_removed_edges: int
    edge_change: sp.coo_matrix


def _check_endpoints(edges: np.ndarray, n_nodes: int, kind: str) -> None:
    if edges.shape[0] == 0:
        return
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError(f"{kind} contains self-loops")
    if edges.min() < 0 or edges.max() >= n_nodes:
        raise ValueError(
            f"{kind} references nodes outside 0..{n_nodes - 1}"
        )


def _undirected_keys(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Orientation-independent int64 key per edge: ``min * n + max``."""
    low = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
    high = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
    return low * np.int64(n_nodes) + high


# A spliced segment costs about what scipy's C addition spends on 64 stored
# nonzeros; a delta with more changes per stored nonzero takes the global sum.
SPLICE_NNZ_PER_CHANGE = 64


def _splice_rows(adjacency: sp.csr_matrix, change: sp.coo_matrix) -> sp.csr_matrix:
    """``A + ΔW`` for a canonical ``A`` with positive weights, recomputed
    only on the rows ``ΔW`` touches (by scipy's sparse sum, so each equals
    its row of the global ``A + ΔW``); the rows between are copied as whole
    segments.  Equals ``(A + ΔW).tocsr()``, ``eliminate_zeros``, ``sort_indices``.
    """
    n = adjacency.shape[0]
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    rows, local = np.unique(change.row, return_inverse=True)
    merged = adjacency[rows] + sp.coo_matrix(
        (change.data, (local, change.col)), shape=(rows.shape[0], n)
    ).tocsr()
    lengths = np.diff(merged.indptr)
    shifts = np.r_[0, np.cumsum(lengths - (indptr[rows + 1] - indptr[rows]))]
    new_indptr = indptr.copy()
    new_indices = np.empty(indptr[n] + shifts[-1], dtype=indices.dtype)
    new_data = np.empty(new_indices.shape[0], dtype=np.float64)
    starts = indptr[rows] + shifts[:-1] - merged.indptr[:-1]
    target = np.repeat(starts, lengths) + np.arange(merged.nnz)
    new_indices[target] = merged.indices
    new_data[target] = merged.data
    # Segment i: the untouched rows before touched row i (or before the end),
    # shifted by what the touched rows before it grew.
    first_rows, stop_rows = np.r_[0, rows + 1], np.r_[rows, n]
    for first_row, stop_row, start, stop, shift in zip(
        first_rows.tolist(), stop_rows.tolist(), indptr[first_rows].tolist(),
        indptr[stop_rows].tolist(), shifts.tolist(),
    ):
        new_indptr[first_row:stop_row + 1] += shift
        new_indices[start + shift:stop + shift] = indices[start:stop]
        new_data[start + shift:stop + shift] = data[start:stop]
    spliced = sp.csr_matrix((new_data, new_indices, new_indptr), shape=adjacency.shape)
    spliced.has_canonical_format = True
    return spliced


def apply_delta(
    adjacency: sp.csr_matrix, delta: GraphDelta, strict: bool = True
) -> DeltaApplication:
    """Apply one :class:`GraphDelta` to a symmetric CSR adjacency.

    A delta that is small next to the graph rebuilds only the rows it
    touches (:func:`_splice_rows`); a larger one, or a non-canonical input,
    takes one sparse addition over the existing structure.  Either way this
    beats the ``O(m log m)`` coordinate sort of a batch rebuild from the
    full edge list, and the returned matrix is canonical CSR
    (sorted indices, no explicit zeros, duplicates summed) so it compares
    bitwise-equal to :meth:`repro.graph.graph.Graph.from_edges` output on
    strict streams.
    """
    n_before = adjacency.shape[0]
    n_after = n_before + delta.add_nodes
    adjacency = unpadded = adjacency.tocsr()

    if delta.add_nodes:
        # Growing the shape only needs the row pointer padded: new rows are
        # empty until an add_edges entry references them.
        indptr = np.concatenate([
            adjacency.indptr,
            np.full(delta.add_nodes, adjacency.indptr[-1], dtype=adjacency.indptr.dtype),
        ])
        adjacency = sp.csr_matrix(
            (adjacency.data, adjacency.indices, indptr), shape=(n_after, n_after)
        )

    add_edges = delta.add_edges
    remove_edges = delta.remove_edges
    _check_endpoints(add_edges, n_after, "add_edges")
    _check_endpoints(remove_edges, n_after, "remove_edges")

    add_weights = (
        delta.add_weights
        if delta.add_weights is not None
        else np.ones(add_edges.shape[0], dtype=np.float64)
    )
    if np.any(add_weights <= 0):
        raise ValueError("added edge weights must be positive")

    # Intra-delta consistency: an edge listed twice within the additions (or
    # in both orientations) would silently double its weight, a duplicated
    # removal would subtract the weight twice and drive it negative, and an
    # edge both added and removed in one delta is ambiguous.  Strict mode
    # rejects all three; lenient mode lets duplicate adds sum (its
    # documented semantics) but always deduplicates removals, since
    # "remove twice" can only mean "remove".
    add_keys = _undirected_keys(add_edges, n_after)
    remove_keys = _undirected_keys(remove_edges, n_after)
    if strict:
        if np.unique(add_keys).shape[0] != add_keys.shape[0]:
            raise ValueError(
                "delta lists the same edge to add more than once; pass "
                "strict=False to sum the weights instead"
            )
        if np.unique(remove_keys).shape[0] != remove_keys.shape[0]:
            raise ValueError("delta lists the same edge to remove more than once")
        if np.intersect1d(add_keys, remove_keys).shape[0]:
            raise ValueError("delta both adds and removes the same edge")
    elif remove_keys.shape[0]:
        _, first_occurrence = np.unique(remove_keys, return_index=True)
        remove_edges = remove_edges[np.sort(first_occurrence)]

    n_removed = remove_edges.shape[0]
    if add_edges.shape[0]:
        existing = np.asarray(
            adjacency[add_edges[:, 0], add_edges[:, 1]]
        ).ravel()
        if strict and np.any(existing != 0):
            duplicates = add_edges[existing != 0][:5].tolist()
            raise ValueError(
                f"delta adds edges that already exist (e.g. {duplicates}); "
                "pass strict=False to sum their weights instead"
            )
    if n_removed:
        current = np.asarray(
            adjacency[remove_edges[:, 0], remove_edges[:, 1]]
        ).ravel()
        if strict and np.any(current == 0):
            missing = remove_edges[current == 0][:5].tolist()
            raise ValueError(
                f"delta removes edges that do not exist (e.g. {missing}); "
                "pass strict=False to skip them instead"
            )
        present = current != 0
        remove_edges = remove_edges[present]
        remove_weights = current[present]
        n_removed = remove_edges.shape[0]

    rows = [add_edges[:, 0], add_edges[:, 1]]
    cols = [add_edges[:, 1], add_edges[:, 0]]
    data = [add_weights, add_weights]
    if n_removed:
        rows += [remove_edges[:, 0], remove_edges[:, 1]]
        cols += [remove_edges[:, 1], remove_edges[:, 0]]
        data += [-remove_weights, -remove_weights]

    change = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_after, n_after),
    )
    delta_degrees = np.bincount(change.row, weights=change.data, minlength=n_after)
    if not (add_edges.shape[0] or n_removed):
        new_adjacency = adjacency
    elif (
        SPLICE_NNZ_PER_CHANGE * change.nnz <= adjacency.nnz
        and unpadded.dtype == np.float64
        and unpadded.has_canonical_format  # cached by scipy, set on our output
        and unpadded.data.min() > 0  # hence no stored zeros
    ):
        new_adjacency = _splice_rows(adjacency, change)
    else:
        new_adjacency = (adjacency + change.tocsr()).tocsr()
        if n_removed:
            # Exact cancellation leaves explicit zeros only where edges were
            # removed; pure insertions skip the extra O(nnz) pass.
            new_adjacency.eliminate_zeros()
        new_adjacency.sort_indices()

    touched = np.unique(np.concatenate([
        add_edges.ravel(),
        remove_edges.ravel(),
        np.arange(n_before, n_after, dtype=np.int64),
    ]))
    return DeltaApplication(
        adjacency=new_adjacency,
        delta_degrees=delta_degrees,
        touched_nodes=touched,
        n_added_edges=int(add_edges.shape[0]),
        n_removed_edges=int(n_removed),
        edge_change=change,
    )


# -------------------------------------------------------------------- streams
def read_delta_stream(path) -> list[GraphDelta]:
    """Parse a JSONL event file (one delta per line, ``#`` comments allowed)."""
    path = Path(path)
    deltas = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed JSON event: {exc}"
                ) from exc
            try:
                deltas.append(GraphDelta.from_dict(record))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_number}: invalid delta: {exc}") from exc
    return deltas


def write_delta_stream(deltas, path) -> Path:
    """Write deltas as a JSONL event file (inverse of :func:`read_delta_stream`)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for delta in deltas:
            handle.write(json.dumps(delta.to_dict(), sort_keys=True) + "\n")
    return path

"""Tests for GraphDelta: construction, serialization, and CSR application."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import repro.stream.delta as delta_module
from repro.graph.graph import Graph
from repro.stream.delta import (
    GraphDelta,
    apply_delta,
    read_delta_stream,
    write_delta_stream,
)


@pytest.fixture()
def path_graph() -> Graph:
    # 0 - 1 - 2 - 3 - 4 with labels 0,1,0,1,0
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        n_nodes=5,
        labels=np.array([0, 1, 0, 1, 0]),
        n_classes=2,
    )


class TestGraphDelta:
    def test_empty_delta(self):
        delta = GraphDelta()
        assert delta.is_empty
        assert delta.n_changed_edges == 0
        assert delta.summary() == "empty delta"

    def test_summary_mentions_every_change(self):
        delta = GraphDelta(
            add_edges=[[0, 1]],
            remove_edges=[[2, 3]],
            add_nodes=2,
            reveal_nodes=[0],
            reveal_labels=[1],
        )
        summary = delta.summary()
        assert "+1 edges" in summary
        assert "-1 edges" in summary
        assert "+2 nodes" in summary
        assert "1 labels revealed" in summary

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            GraphDelta(add_edges=[[0, 1], [1, 2]], add_weights=[1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            GraphDelta(add_edges=[[0, 2]], add_weights=[weight])
        # The JSON event format parses NaN/Infinity, so the dict path too.
        with pytest.raises(ValueError, match="finite"):
            GraphDelta.from_dict({"add_edges": [[0, 2]], "add_weights": [weight]})

    def test_mismatched_node_labels_rejected(self):
        with pytest.raises(ValueError, match="node labels"):
            GraphDelta(add_nodes=2, node_labels=[0])

    def test_mismatched_reveals_rejected(self):
        with pytest.raises(ValueError, match="reveal"):
            GraphDelta(reveal_nodes=[0, 1], reveal_labels=[1])

    def test_negative_add_nodes_rejected(self):
        with pytest.raises(ValueError, match="add_nodes"):
            GraphDelta(add_nodes=-1)

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            GraphDelta(add_edges=[[0, 1, 2]])

    def test_dict_round_trip(self):
        delta = GraphDelta(
            add_edges=[[0, 3], [1, 4]],
            remove_edges=[[0, 1]],
            add_nodes=1,
            node_labels=[1],
            reveal_nodes=[2],
            reveal_labels=[0],
        )
        rebuilt = GraphDelta.from_dict(delta.to_dict())
        np.testing.assert_array_equal(rebuilt.add_edges, delta.add_edges)
        np.testing.assert_array_equal(rebuilt.remove_edges, delta.remove_edges)
        assert rebuilt.add_nodes == 1
        np.testing.assert_array_equal(rebuilt.node_labels, delta.node_labels)
        np.testing.assert_array_equal(rebuilt.reveal_nodes, delta.reveal_nodes)
        np.testing.assert_array_equal(rebuilt.reveal_labels, delta.reveal_labels)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown delta fields"):
            GraphDelta.from_dict({"add_edgez": [[0, 1]]})


class TestApplyDelta:
    def test_add_edge(self, path_graph):
        outcome = apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[0, 4]]))
        assert outcome.adjacency[0, 4] == 1.0
        assert outcome.adjacency[4, 0] == 1.0
        assert outcome.n_added_edges == 1
        np.testing.assert_array_equal(outcome.touched_nodes, [0, 4])
        np.testing.assert_allclose(
            outcome.delta_degrees, [1.0, 0.0, 0.0, 0.0, 1.0]
        )

    def test_remove_edge(self, path_graph):
        outcome = apply_delta(path_graph.adjacency, GraphDelta(remove_edges=[[1, 2]]))
        assert outcome.adjacency[1, 2] == 0.0
        assert outcome.adjacency.nnz == path_graph.adjacency.nnz - 2
        np.testing.assert_allclose(
            outcome.delta_degrees, [0.0, -1.0, -1.0, 0.0, 0.0]
        )

    def test_add_nodes_grow_shape(self, path_graph):
        delta = GraphDelta(add_nodes=2, add_edges=[[5, 0], [6, 5]])
        outcome = apply_delta(path_graph.adjacency, delta)
        assert outcome.adjacency.shape == (7, 7)
        assert outcome.adjacency[5, 0] == 1.0
        assert outcome.adjacency[6, 5] == 1.0
        assert 5 in outcome.touched_nodes and 6 in outcome.touched_nodes

    def test_input_matrix_unchanged(self, path_graph):
        before = path_graph.adjacency.copy()
        apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[0, 2]]))
        assert (path_graph.adjacency != before).nnz == 0

    def test_matches_batch_rebuild_exactly(self, path_graph):
        """The incremental CSR must be bitwise-equal to a from_edges rebuild."""
        delta = GraphDelta(add_edges=[[0, 3], [1, 4]], remove_edges=[[2, 3]])
        outcome = apply_delta(path_graph.adjacency, delta)
        surviving = [(0, 1), (1, 2), (3, 4), (0, 3), (1, 4)]
        rebuilt = Graph.from_edges(surviving, n_nodes=5).adjacency
        np.testing.assert_array_equal(outcome.adjacency.indptr, rebuilt.indptr)
        np.testing.assert_array_equal(outcome.adjacency.indices, rebuilt.indices)
        np.testing.assert_array_equal(outcome.adjacency.data, rebuilt.data)

    def test_strict_duplicate_add_rejected(self, path_graph):
        with pytest.raises(ValueError, match="already exist"):
            apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[0, 1]]))

    def test_strict_absent_remove_rejected(self, path_graph):
        with pytest.raises(ValueError, match="do not exist"):
            apply_delta(path_graph.adjacency, GraphDelta(remove_edges=[[0, 4]]))

    def test_lenient_duplicate_add_sums_weights(self, path_graph):
        outcome = apply_delta(
            path_graph.adjacency, GraphDelta(add_edges=[[0, 1]]), strict=False
        )
        assert outcome.adjacency[0, 1] == 2.0

    def test_lenient_absent_remove_is_noop(self, path_graph):
        outcome = apply_delta(
            path_graph.adjacency, GraphDelta(remove_edges=[[0, 4]]), strict=False
        )
        assert outcome.n_removed_edges == 0
        assert (outcome.adjacency != path_graph.adjacency).nnz == 0

    def test_self_loop_rejected(self, path_graph):
        with pytest.raises(ValueError, match="self-loops"):
            apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[2, 2]]))

    def test_out_of_range_rejected(self, path_graph):
        with pytest.raises(ValueError, match="outside"):
            apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[0, 9]]))

    def test_weighted_add(self, path_graph):
        outcome = apply_delta(
            path_graph.adjacency,
            GraphDelta(add_edges=[[0, 2]], add_weights=[2.5]),
        )
        assert outcome.adjacency[0, 2] == 2.5
        assert outcome.delta_degrees[0] == 2.5

    def test_nonpositive_weight_rejected(self, path_graph):
        with pytest.raises(ValueError, match="positive"):
            apply_delta(
                path_graph.adjacency,
                GraphDelta(add_edges=[[0, 2]], add_weights=[-1.0]),
            )

    def test_result_is_canonical_csr(self, path_graph):
        outcome = apply_delta(
            path_graph.adjacency,
            GraphDelta(add_edges=[[0, 4], [0, 2]], remove_edges=[[1, 2]]),
        )
        assert outcome.adjacency.has_sorted_indices
        assert np.all(outcome.adjacency.data != 0)


class TestDeltaStreamIO:
    def test_round_trip(self, tmp_path):
        deltas = [
            GraphDelta(add_edges=[[0, 1]]),
            GraphDelta(add_nodes=1, node_labels=[0], reveal_nodes=[5], reveal_labels=[0]),
            GraphDelta(remove_edges=[[0, 1]]),
        ]
        path = write_delta_stream(deltas, tmp_path / "events.jsonl")
        loaded = read_delta_stream(path)
        assert len(loaded) == 3
        np.testing.assert_array_equal(loaded[0].add_edges, [[0, 1]])
        assert loaded[1].add_nodes == 1
        np.testing.assert_array_equal(loaded[2].remove_edges, [[0, 1]])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '# a comment\n\n{"add_edges": [[0, 1]]}\n', encoding="utf-8"
        )
        assert len(read_delta_stream(path)) == 1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"add_edges": [[0, 1]]}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            read_delta_stream(path)


class TestIntraDeltaDuplicates:
    def test_strict_rejects_duplicate_adds_within_delta(self, path_graph):
        with pytest.raises(ValueError, match="more than once"):
            apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[0, 2], [0, 2]]))

    def test_strict_rejects_duplicate_adds_across_orientations(self, path_graph):
        with pytest.raises(ValueError, match="more than once"):
            apply_delta(path_graph.adjacency, GraphDelta(add_edges=[[0, 2], [2, 0]]))

    def test_strict_rejects_duplicate_removals(self, path_graph):
        with pytest.raises(ValueError, match="remove more than once"):
            apply_delta(
                path_graph.adjacency, GraphDelta(remove_edges=[[0, 1], [1, 0]])
            )

    def test_strict_rejects_add_and_remove_of_same_edge(self, path_graph):
        with pytest.raises(ValueError, match="adds and removes"):
            apply_delta(
                path_graph.adjacency,
                GraphDelta(add_edges=[[0, 2]], remove_edges=[[2, 0]]),
            )

    def test_lenient_duplicate_removals_never_go_negative(self, path_graph):
        outcome = apply_delta(
            path_graph.adjacency,
            GraphDelta(remove_edges=[[0, 1], [1, 0]]),
            strict=False,
        )
        assert outcome.n_removed_edges == 1
        assert outcome.adjacency[0, 1] == 0.0
        assert outcome.adjacency.nnz == path_graph.adjacency.nnz - 2
        assert np.all(outcome.adjacency.data > 0)

    def test_lenient_duplicate_adds_sum_within_delta(self, path_graph):
        outcome = apply_delta(
            path_graph.adjacency,
            GraphDelta(add_edges=[[0, 2], [2, 0]]),
            strict=False,
        )
        assert outcome.adjacency[0, 2] == 2.0


# Weights whose sums depend on the order of addition, so a summation that
# strays from the reference's order shows up in the bits.
WEIGHTS = np.array([0.1, 0.2, 0.3, 0.7, 1.0, 1e-3])


def stored_adjacency(rng, n: int, layout: str) -> sp.csr_matrix:
    """A symmetric weighted CSR on ``n`` nodes, stored in one of four layouts.

    ``canonical`` is scipy's canonical form; ``unsorted`` shuffles each row;
    ``duplicates`` splits some edges into two stored entries; ``zeros``
    stores explicit zeros at some absent pairs.
    """
    pairs = rng.integers(0, n, size=(2 * n, 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    weights = rng.choice(WEIGHTS, pairs.shape[0])
    if layout == "duplicates":
        split = rng.random(pairs.shape[0]) < 0.4
        pairs = np.vstack([pairs, pairs[split]])
        weights = np.concatenate([weights, rng.choice(WEIGHTS, int(split.sum()))])
    if layout == "zeros":
        extra = rng.integers(0, n, size=(n, 2))
        extra = np.sort(extra[extra[:, 0] != extra[:, 1]], axis=1)
        dense = np.zeros((n, n), dtype=bool)
        dense[pairs[:, 0], pairs[:, 1]] = True
        extra = np.unique(extra[~dense[extra[:, 0], extra[:, 1]]], axis=0)
        pairs = np.vstack([pairs, extra])
        weights = np.concatenate([weights, np.zeros(extra.shape[0])])
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.concatenate([weights, weights])
    within = rng.random(rows.shape[0]) if layout == "unsorted" else cols
    order = np.lexsort((within, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sp.csr_matrix(
        (data[order], cols[order].astype(np.int32), indptr.astype(np.int32)),
        shape=(n, n),
    )


def random_delta(rng, adjacency, add_nodes: int, strict: bool) -> GraphDelta:
    """A delta valid in ``strict`` mode, or a noisy one for lenient mode."""
    n_after = adjacency.shape[0] + add_nodes
    present = np.zeros((n_after, n_after), dtype=bool)
    present[: adjacency.shape[0], : adjacency.shape[0]] = adjacency.toarray() != 0
    upper = np.triu_indices(n_after, k=1)
    absent = np.flatnonzero(~present[upper])
    stored = np.flatnonzero(present[upper])
    if strict:
        adds = rng.choice(absent, min(absent.shape[0], rng.integers(0, 5)), replace=False)
        removes = rng.choice(stored, min(stored.shape[0], rng.integers(0, 4)), replace=False)
    else:
        # A small pool makes repeated adds (and add-remove overlaps) common.
        pool = rng.choice(upper[0].shape[0], 3)
        adds = rng.choice(pool, rng.integers(0, 7))
        removes = rng.choice(np.r_[pool, stored], rng.integers(0, 5))
    add_edges = np.column_stack([upper[0][adds], upper[1][adds]])
    flip = rng.random(add_edges.shape[0]) < 0.5
    add_edges[flip] = add_edges[flip][:, ::-1]
    return GraphDelta(
        add_edges=add_edges,
        add_weights=rng.choice(WEIGHTS, add_edges.shape[0]) if rng.random() < 0.7 else None,
        remove_edges=np.column_stack([upper[0][removes], upper[1][removes]]),
        add_nodes=add_nodes,
    )


def assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestApplyDeltaOracle:
    """The row splice against ``(A + ΔW)`` + ``eliminate_zeros`` + ``sort_indices``."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        layout=st.sampled_from(["canonical", "unsorted", "duplicates", "zeros"]),
        add_nodes=st.integers(0, 2),
        strict=st.booleans(),
    )
    def test_splice_equals_global_sum(self, seed, n, layout, add_nodes, strict):
        rng = np.random.default_rng(seed)
        adjacency = stored_adjacency(rng, n, layout)
        delta = random_delta(rng, adjacency, add_nodes, strict)
        before = [adjacency.indptr.copy(), adjacency.indices.copy(), adjacency.data.copy()]

        application = apply_delta(adjacency, delta, strict=strict)
        assume(application.n_added_edges + application.n_removed_edges > 0)
        # A tiny threshold splices every canonical input, however small.
        with mock.patch.object(delta_module, "SPLICE_NNZ_PER_CHANGE", 1e-9):
            spliced = apply_delta(adjacency, delta, strict=strict)

        n_after = n + add_nodes
        padded = sp.csr_matrix((
            adjacency.data, adjacency.indices,
            np.concatenate([adjacency.indptr, np.full(add_nodes, adjacency.indptr[-1])]),
        ), shape=(n_after, n_after))
        reference = (padded + application.edge_change.tocsr()).tocsr()
        reference.eliminate_zeros()
        reference.sort_indices()
        assert_same_csr(application.adjacency, reference)
        assert_same_csr(spliced.adjacency, reference)
        assert spliced.adjacency.has_canonical_format
        for original, now in zip(before, (adjacency.indptr, adjacency.indices, adjacency.data)):
            assert original.tobytes() == now.tobytes()

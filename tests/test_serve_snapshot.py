"""Published belief snapshots: queries never wait on a propagation.

Every propagation of a served graph publishes one immutable
:class:`~repro.serve.service.BeliefSnapshot`; queries read it without the
session lock.  These tests hold a propagation open and check that a query
still answers from the previous snapshot, that a fenced query waits for
the publish covering its token (and gives up with 503), and that a
published snapshot never changes under later deltas.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.serve import InferenceService, ServeError
from repro.serve import service as service_module
from repro.stream import GraphDelta


@pytest.fixture(scope="module")
def snapshot_graph():
    return generate_graph(
        500, 2_500, skew_compatibility(3, h=3.0), seed=11, name="snapshot-test"
    )


def loaded(graph, localized: bool = False) -> InferenceService:
    service = InferenceService()
    service.load_graph(
        "g", graph=graph.copy(), fraction=0.1, seed=2, localized=localized
    )
    return service


class HeldPropagation:
    """Blocks the session's next propagation until :meth:`release`."""

    def __init__(self, service: InferenceService) -> None:
        self.session = service._served("g").session
        self.entered = threading.Event()
        self._release = threading.Event()
        original = self.session.propagate

        def held(*args, **kwargs):
            self.entered.set()
            self._release.wait(timeout=30.0)
            return original(*args, **kwargs)

        self.session.propagate = held

    def release(self) -> None:
        self._release.set()


def run_in_thread(target, *args) -> tuple[threading.Thread, list]:
    outcome: list = []
    thread = threading.Thread(
        target=lambda: outcome.append(target(*args)), daemon=True
    )
    thread.start()
    return thread, outcome


class TestQueriesDuringAPropagation:
    def test_unfenced_query_answers_from_the_previous_snapshot(
        self, snapshot_graph
    ):
        service = loaded(snapshot_graph)
        hold = HeldPropagation(service)
        writer, _ = run_in_thread(
            service.apply_delta, "g", GraphDelta(add_edges=[[0, 499]])
        )
        try:
            assert hold.entered.wait(timeout=10.0)
            reader, answered = run_in_thread(service.query, "g", [0, 1])
            reader.join(timeout=1.0)
            assert answered, "the query waited on the held propagation"
        finally:
            hold.release()
            writer.join(timeout=30.0)
        result = answered[0]
        assert result.belief_version == 1 and result.graph_version == 0
        assert result.staleness["pending_deltas"] == 1
        after = service.query("g", [0, 1])
        assert after.belief_version == 2 and after.graph_version == 1
        assert after.staleness["pending_deltas"] == 0

    def test_fenced_query_waits_for_the_covering_publish(self, snapshot_graph):
        service = loaded(snapshot_graph)
        hold = HeldPropagation(service)
        writer, _ = run_in_thread(
            service.apply_delta, "g", GraphDelta(add_edges=[[0, 499]])
        )
        try:
            assert hold.entered.wait(timeout=10.0)
            reader, answered = run_in_thread(
                service.query, "g", [0], None, 1
            )
            reader.join(timeout=0.2)
            assert not answered, "answered a token its snapshot misses"
        finally:
            hold.release()
            writer.join(timeout=30.0)
        reader.join(timeout=10.0)
        assert answered[0].graph_version == 1
        assert answered[0].belief_version == 2

    def test_fence_wait_times_out_with_503(self, snapshot_graph, monkeypatch):
        monkeypatch.setattr(service_module, "FENCE_WAIT_SECONDS", 0.05)
        service = loaded(snapshot_graph)
        hold = HeldPropagation(service)
        writer, _ = run_in_thread(
            service.apply_delta, "g", GraphDelta(add_edges=[[0, 499]])
        )
        try:
            assert hold.entered.wait(timeout=10.0)
            results = service.query_many("g", [([0], None, 1), ([0], None)])
        finally:
            hold.release()
            writer.join(timeout=30.0)
        assert isinstance(results[0], ServeError)
        assert results[0].status == 503
        # The unfenced sibling still answers, from the older snapshot.
        assert results[1].graph_version == 0

    def test_new_nodes_are_queryable_only_once_published(self, snapshot_graph):
        service = loaded(snapshot_graph)
        applied = service.apply_and_log("g", [GraphDelta(add_nodes=1)])
        with pytest.raises(ServeError, match="query nodes must be in"):
            service.query("g", [500])
        service.propagate_and_publish(applied)
        assert service.query("g", [500]).graph_version == 1


class TestSnapshotImmutability:
    @pytest.mark.parametrize("localized", [False, True])
    def test_snapshot_survives_later_deltas(self, snapshot_graph, localized):
        service = loaded(snapshot_graph, localized=localized)
        served = service._served("g")
        snapshot = served.snapshot
        beliefs = snapshot.beliefs.copy()
        labels = snapshot.labels.copy()
        for i in range(6):
            service.apply_deltas("g", [
                GraphDelta(add_edges=[[i, 499 - i]]),
                GraphDelta(reveal_nodes=[100 + i], reveal_labels=[i % 3]),
            ])
        if localized:
            assert served.session.mode_counts["localized"] > 0
        assert served.snapshot.belief_version == snapshot.belief_version + 6
        assert not np.array_equal(served.snapshot.beliefs, beliefs)
        np.testing.assert_array_equal(snapshot.beliefs, beliefs)
        np.testing.assert_array_equal(snapshot.labels, labels)

    def test_published_arrays_are_read_only(self, snapshot_graph):
        service = loaded(snapshot_graph)
        snapshot = service._served("g").snapshot
        with pytest.raises(ValueError, match="read-only"):
            snapshot.beliefs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            snapshot.labels[0] = 1


class TestExactTallies:
    def test_concurrent_queries_are_counted_exactly(self, snapshot_graph):
        """Readers racing publishes: no query count is lost or repeated."""
        service = loaded(snapshot_graph)
        barrier = threading.Barrier(5)
        seen: list[tuple[int, int]] = []  # (belief_version, since_refresh)

        def reader() -> None:
            barrier.wait()
            for _ in range(50):
                result = service.query("g", [1, 2])
                seen.append((
                    result.belief_version,
                    result.staleness["queries_since_refresh"],
                ))

        def writer() -> None:
            barrier.wait()
            for i in range(4):
                service.apply_delta("g", GraphDelta(add_edges=[[i, 498 - i]]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert service.info("g")["n_queries"] == 200
        # Each snapshot numbers its queries 0, 1, 2, ... exactly once.
        by_version: dict[int, list[int]] = {}
        for version, since_refresh in seen:
            by_version.setdefault(version, []).append(since_refresh)
        for counts in by_version.values():
            assert sorted(counts) == list(range(len(counts)))

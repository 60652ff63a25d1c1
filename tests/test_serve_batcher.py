"""Unit tests for the micro-batcher: delta coalescing, ordering, flush policy."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.serve import InferenceService, MicroBatcher, ServeError
from repro.stream import GraphDelta


@pytest.fixture(scope="module")
def batch_graph():
    return generate_graph(
        400, 2_000, skew_compatibility(3, h=3.0), seed=9, name="batch-test"
    )


@pytest.fixture()
def service(batch_graph):
    service = InferenceService()
    service.load_graph(
        "g", graph=batch_graph.copy(), fraction=0.1, seed=2
    )
    return service


def edge_delta(i: int) -> GraphDelta:
    """A single-edge insertion that is absent from the fixture graph."""
    return GraphDelta(add_edges=[[i, 399 - i]])


class TestCoalescing:
    """Deterministic coalescing semantics, driven via flush_pending()."""

    def test_deltas_coalesce_into_one_propagation(self, service):
        solves_before = service.info("g")["n_solves"]
        batcher = MicroBatcher(service, start=False)
        futures = [batcher.submit_delta("g", edge_delta(i)) for i in range(4)]
        batcher.flush_pending()
        outcomes = [future.result(timeout=0) for future in futures]
        assert service.info("g")["n_solves"] == solves_before + 1
        assert batcher.n_delta_batches == 1
        assert batcher.stats()["propagations_saved"] == 3
        # Each caller's result is scoped to its ONE delta; n_coalesced
        # reports the shared propagation — same response shape with or
        # without concurrent siblings.
        assert all(outcome.n_deltas == 1 for outcome in outcomes)
        assert all(outcome.n_applied == 1 for outcome in outcomes)
        assert all(outcome.n_coalesced == 4 for outcome in outcomes)

    def test_query_after_delta_ack_sees_the_delta(self, service):
        batcher = MicroBatcher(service, start=False)
        delta_future = batcher.submit_delta("g", edge_delta(5))
        # Not acknowledged yet: a query answers from the beliefs before it.
        assert service.query("g", [5]).graph_version == 0
        batcher.flush_pending()
        acked = delta_future.result(timeout=0)
        result = batcher.query("g", [5])  # answered on this thread
        assert result.graph_version == acked.graph_version == 1
        assert result.belief_version >= acked.belief_version  # monotonic reads

    def test_max_batch_bounds_one_flush(self, service):
        batcher = MicroBatcher(service, max_batch=4, start=False)
        futures = [batcher.submit_delta("g", edge_delta(i)) for i in range(10)]
        assert batcher.flush_pending() == 4
        assert batcher.flush_pending() == 4
        assert batcher.flush_pending() == 2
        assert batcher.flush_pending() == 0
        assert all(future.done() for future in futures)
        assert batcher.stats()["mean_batch_size"] == pytest.approx(10 / 3)

    def test_per_request_errors_do_not_poison_the_batch(self, service):
        batcher = MicroBatcher(service, start=False)
        adjacency = service._served("g").session.graph.adjacency
        assert adjacency[1, 396] == 0  # removal below must target a non-edge
        good = batcher.submit_delta("g", edge_delta(2))
        bad_delta = batcher.submit_delta(
            "g", GraphDelta(remove_edges=[[1, 396]])
        )
        bad_graph = batcher.submit_delta("nope", edge_delta(3))
        batcher.flush_pending()
        assert good.result(timeout=0).n_applied == 1
        with pytest.raises(ServeError, match="delta rejected"):
            bad_delta.result(timeout=0)
        with pytest.raises(ServeError, match="no graph named"):
            bad_graph.result(timeout=0)
        assert service.info("g")["graph_version"] == 1


class TestWorkerThread:
    """The live worker: max-latency flush and lifecycle."""

    def test_single_delta_waits_out_the_latency_budget(self, service):
        with MicroBatcher(service, max_latency_seconds=0.05) as batcher:
            start = time.perf_counter()
            outcome = batcher.apply_delta("g", edge_delta(3), timeout=5.0)
            elapsed = time.perf_counter() - start
            assert outcome.n_applied == 1
            # The flush waits out the whole budget from the delta's
            # arrival; the upper bound only absorbs scheduler noise.
            assert 0.05 <= elapsed < 2.0
            assert batcher.n_flushes == 1

    def test_full_batch_flushes_before_the_budget(self, service):
        with MicroBatcher(
            service, max_batch=3, max_latency_seconds=30.0
        ) as batcher:
            futures = [batcher.submit_delta("g", edge_delta(i))
                       for i in range(3)]
            outcomes = [future.result(timeout=5.0) for future in futures]
            assert all(outcome.n_coalesced == 3 for outcome in outcomes)
            assert batcher.n_flushes == 1

    def test_concurrent_clients_are_batched(self, service):
        with MicroBatcher(service, max_latency_seconds=0.05) as batcher:
            barrier = threading.Barrier(8)
            results = [None] * 8

            def client(index):
                barrier.wait()
                results[index] = batcher.apply_delta(
                    "g", edge_delta(index), timeout=5.0
                )

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(result is not None for result in results)
            # 8 simultaneous deltas should land in far fewer flushes.
            assert batcher.n_flushes < 8
            assert batcher.largest_batch >= 2
            assert service.info("g")["graph_version"] == 8

    def test_close_drains_queued_work(self, service):
        batcher = MicroBatcher(service, max_latency_seconds=0.5)
        future = batcher.submit_delta("g", edge_delta(0))
        batcher.close()
        assert future.result(timeout=0).n_applied == 1

    def test_submit_after_close_raises(self, service):
        batcher = MicroBatcher(service)
        batcher.close()
        with pytest.raises(ServeError, match="closed"):
            batcher.submit_delta("g", edge_delta(0))

    def test_close_fails_unprocessed_futures_of_stopped_batcher(self, service):
        batcher = MicroBatcher(service, start=False)
        future = batcher.submit_delta("g", edge_delta(0))
        batcher.close()
        with pytest.raises(ServeError, match="closed before"):
            future.result(timeout=0)
        assert service.info("g")["graph_version"] == 0

    def test_queue_bound_backpressure(self, service):
        batcher = MicroBatcher(service, max_queue=2, start=False)
        batcher.submit_delta("g", edge_delta(0))
        batcher.submit_delta("g", edge_delta(1))
        with pytest.raises(ServeError, match="queue is full"):
            batcher.submit_delta("g", edge_delta(2))
        batcher.flush_pending()
        batcher.submit_delta("g", edge_delta(3))  # room again after the flush

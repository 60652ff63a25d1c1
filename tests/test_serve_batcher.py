"""Unit tests for the micro-batcher: coalescing, ordering, flush policy."""

from __future__ import annotations

import threading
import time

import numpy as np
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


class TestCoalescing:
    """Deterministic coalescing semantics, driven via flush_pending()."""

    def test_queries_coalesce_into_one_vectorized_batch(self, service):
        batcher = MicroBatcher(service, start=False)
        futures = [batcher.submit_query("g", [i], 1) for i in range(10)]
        assert all(not future.done() for future in futures)

        n_drained = batcher.flush_pending()
        assert n_drained == 10
        assert batcher.n_flushes == 1
        assert batcher.n_query_batches == 1  # ONE query_many call for all 10
        assert batcher.largest_batch == 10
        for node, future in enumerate(futures):
            result = future.result(timeout=0)
            assert result.nodes.tolist() == [node]
            assert len(result.top[0]) == 1

    def test_deltas_coalesce_into_one_propagation(self, service):
        solves_before = service.info("g")["n_solves"]
        batcher = MicroBatcher(service, start=False)
        futures = [
            batcher.submit_delta("g", GraphDelta(add_edges=[[i, 399 - i]]))
            for i in range(4)
        ]
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

    def test_deltas_processed_before_queries_in_a_flush(self, service):
        # A query flushed together with a delta sees the post-delta
        # beliefs (fresh reads): deltas are applied first within a flush.
        version_before = service.info("g")["belief_version"]
        batcher = MicroBatcher(service, start=False)
        query_future = batcher.submit_query("g", [0])
        delta_future = batcher.submit_delta(
            "g", GraphDelta(add_edges=[[0, 399]])
        )
        batcher.flush_pending()
        assert delta_future.result(timeout=0).belief_version == version_before + 1
        assert query_future.result(timeout=0).belief_version == version_before + 1
        assert query_future.result(timeout=0).staleness["pending_deltas"] == 0

    def test_query_after_delta_ack_sees_the_delta(self, service):
        batcher = MicroBatcher(service, start=False)
        delta_future = batcher.submit_delta(
            "g", GraphDelta(add_edges=[[5, 395]])
        )
        batcher.flush_pending()
        acked = delta_future.result(timeout=0)
        query_future = batcher.submit_query("g", [5])
        batcher.flush_pending()
        result = query_future.result(timeout=0)
        assert result.belief_version >= acked.belief_version  # monotonic reads

    def test_max_batch_bounds_one_flush(self, service):
        batcher = MicroBatcher(service, max_batch=4, start=False)
        futures = [batcher.submit_query("g", [i]) for i in range(10)]
        assert batcher.flush_pending() == 4
        assert batcher.flush_pending() == 4
        assert batcher.flush_pending() == 2
        assert batcher.flush_pending() == 0
        assert all(future.done() for future in futures)

    def test_per_request_errors_do_not_poison_the_batch(self, service):
        batcher = MicroBatcher(service, start=False)
        good = batcher.submit_query("g", [1])
        bad_nodes = batcher.submit_query("g", [9999])
        bad_graph = batcher.submit_query("nope", [0])
        adjacency = service._served("g").session.graph.adjacency
        assert adjacency[1, 396] == 0  # removal below must target a non-edge
        bad_delta = batcher.submit_delta(
            "g", GraphDelta(remove_edges=[[1, 396]])
        )
        batcher.flush_pending()
        assert good.result(timeout=0).nodes.tolist() == [1]
        with pytest.raises(ServeError, match="0..399"):
            bad_nodes.result(timeout=0)
        with pytest.raises(ServeError, match="no graph named"):
            bad_graph.result(timeout=0)
        with pytest.raises(ServeError, match="delta rejected"):
            bad_delta.result(timeout=0)


class TestWorkerThread:
    """The live worker: max-latency flush and lifecycle."""

    def test_single_query_flushes_within_latency_budget(self, service):
        with MicroBatcher(service, max_latency_seconds=0.01) as batcher:
            start = time.perf_counter()
            result = batcher.query("g", [3], timeout=5.0)
            elapsed = time.perf_counter() - start
            assert result.nodes.tolist() == [3]
            # Generous bound: budget is 10 ms, allow scheduler noise.
            assert elapsed < 2.0
            assert batcher.n_flushes >= 1

    def test_concurrent_clients_are_batched(self, service):
        with MicroBatcher(service, max_latency_seconds=0.02) as batcher:
            barrier = threading.Barrier(8)
            results = [None] * 8

            def client(index):
                barrier.wait()
                results[index] = batcher.query("g", [index], timeout=5.0)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(result is not None for result in results)
            # 8 simultaneous queries should land in far fewer flushes.
            assert batcher.n_flushes < 8
            assert batcher.largest_batch >= 2

    def test_close_drains_queued_work(self, service):
        batcher = MicroBatcher(service, max_latency_seconds=0.5)
        future = batcher.submit_query("g", [0])
        batcher.close()
        assert future.result(timeout=0).nodes.tolist() == [0]

    def test_submit_after_close_raises(self, service):
        batcher = MicroBatcher(service)
        batcher.close()
        with pytest.raises(ServeError, match="closed"):
            batcher.submit_query("g", [0])

    def test_close_fails_unprocessed_futures_of_stopped_batcher(self, service):
        batcher = MicroBatcher(service, start=False)
        future = batcher.submit_query("g", [0])
        batcher.close()
        with pytest.raises(ServeError, match="closed before"):
            future.result(timeout=0)

    def test_queue_bound_backpressure(self, service):
        batcher = MicroBatcher(service, max_queue=2, start=False)
        batcher.submit_query("g", [0])
        batcher.submit_query("g", [1])
        with pytest.raises(ServeError, match="queue is full"):
            batcher.submit_query("g", [2])
        batcher.flush_pending()
        batcher.submit_query("g", [3])  # room again after the flush

"""Read-your-writes tokens, applied acks, and durability.

The serving tier's consistency contract, exercised directly against
:class:`InferenceService` and its :class:`MicroBatcher` (the router-level
version of the same contract lives in test_serve_router.py):

* every acknowledged delta returns a version token;
* a query carrying that token as ``min_version`` always reflects the delta
  — even when the ack came before the propagation (``ack="applied"``:
  applied+durable, the batcher's solve still to publish);
* a token from a *lost* write (queue deleted behind the service's back)
  trips the 412 fence instead of answering stale;
* with a durable queue, ``load_graph(recover=True)`` replays acknowledged
  deltas and lands on the exact token the last ack named.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.compatibility import skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.io import save_graph_npz
from repro.serve import InferenceService, ServeError
from repro.serve.batcher import MicroBatcher
from repro.stream import GraphDelta


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    graph = generate_graph(
        400, 2_000, skew_compatibility(3, h=3.0), seed=7, name="ryw-test"
    )
    return save_graph_npz(graph, tmp_path_factory.mktemp("ryw") / "g.npz")


def edge_delta(a: int, b: int) -> GraphDelta:
    return GraphDelta.from_dict({"add_edges": [[a, b]]})


def durable_service(tmp_path, graph_path, **kwargs) -> InferenceService:
    service = InferenceService(queue_dir=tmp_path / "queues", **kwargs)
    service.load_graph("g", path=graph_path, fraction=0.1, seed=1)
    return service


# ----------------------------------------------------------------- tokens
class TestTokens:
    def test_every_ack_carries_its_apply_position(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        outcome = service.apply_deltas(
            "g", [edge_delta(0, 1), edge_delta(1, 2), edge_delta(2, 3)]
        )
        assert outcome.tokens == [1, 2, 3]
        assert outcome.token == 3
        assert outcome.graph_version == 3
        assert outcome.to_dict()["tokens"] == [1, 2, 3]

    def test_rejected_deltas_get_no_token(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        outcome = service.apply_deltas(
            "g",
            [edge_delta(0, 1), edge_delta(0, 1), edge_delta(5, 6)],
        )  # strict mode rejects the duplicate add in the middle
        assert outcome.errors[1] is not None
        assert outcome.tokens == [1, None, 2]

    def test_tokens_without_queue_still_count(self, graph_path):
        service = InferenceService()
        service.load_graph("g", path=graph_path, fraction=0.1, seed=1)
        first = service.apply_delta("g", edge_delta(0, 1))
        second = service.apply_delta("g", edge_delta(1, 2))
        assert (first.token, second.token) == (1, 2)

    def test_query_at_token_reflects_the_write(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        token = service.apply_delta("g", edge_delta(0, 1)).token
        result = service.query("g", [0], min_version=token)
        assert result.graph_version >= token
        assert result.belief_version >= 2  # anchor + the delta's refresh


# ------------------------------------------------------------- applied ack
class TestDeferredAck:
    def test_deferred_ack_skips_propagation(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        batcher = MicroBatcher(service, start=False)
        future = batcher.submit_delta("g", edge_delta(0, 1), ack="applied")
        batcher.flush_pending()
        outcome = future.result(timeout=0)
        # Answered between the halves: applied and logged, not propagated.
        assert outcome.propagated is False
        assert outcome.reason is None
        assert outcome.token == 1
        assert outcome.belief_version == 1  # still just the anchor

    def test_query_waits_for_the_batchers_refresh(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        with MicroBatcher(service, max_latency_seconds=0.001) as batcher:
            token = batcher.apply_delta(
                "g", edge_delta(0, 1), ack="applied"
            ).token
            result = service.query("g", [0, 1], min_version=token)
        # The fenced query answered from the publish covering its token:
        # fresh reads survive applied acknowledgements.
        assert result.belief_version == 2
        assert result.graph_version == token
        assert service.info("g")["staleness"]["pending_deltas"] == 0

    def test_deferred_beliefs_match_eager_beliefs(self, tmp_path, graph_path):
        eager = durable_service(tmp_path / "a", graph_path)
        deferred = durable_service(tmp_path / "b", graph_path)
        deltas = [edge_delta(i, i + 7) for i in range(5)]
        for delta in deltas:
            eager.apply_delta("g", delta)
        batcher = MicroBatcher(deferred, start=False)
        for delta in deltas:
            batcher.submit_delta("g", delta, ack="applied")
        batcher.flush_pending()  # one coalesced refresh
        nodes = list(range(30))
        lazy = deferred.query("g", nodes)
        fresh = eager.query("g", nodes)
        # One coalesced warm solve vs five sequential ones: both converge to
        # the same fixed point within the engine tolerance, not bit-exactly.
        np.testing.assert_allclose(
            np.asarray(lazy.beliefs), np.asarray(fresh.beliefs),
            rtol=1e-4, atol=1e-7,
        )

    def test_fence_rejects_token_from_the_future(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        token = service.apply_delta("g", edge_delta(0, 1)).token
        with pytest.raises(ServeError, match="fence") as excinfo:
            service.query("g", [0], min_version=token + 1)
        assert excinfo.value.status == 412

    def test_fence_error_is_isolated_per_request(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        service.apply_delta("g", edge_delta(0, 1))
        results = service.query_many(
            "g", [([0], None, 1), ([1], None, 99), ([2], None, None)]
        )
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], ServeError)
        assert results[1].status == 412
        assert not isinstance(results[2], Exception)


# ----------------------------------------------------------- durable queue
class TestDurability:
    def test_acked_deltas_survive_into_recovery(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        tokens = [
            service.apply_delta("g", edge_delta(i, i + 11)).token
            for i in range(4)
        ]
        reference = service.query("g", list(range(20)))

        # A new process over the same queue directory: the worker died.
        revived = InferenceService(queue_dir=tmp_path / "queues")
        revived.load_graph(
            "g", path=graph_path, fraction=0.1, seed=1, recover=True
        )
        info = revived.info("g")
        assert info["graph_version"] == tokens[-1]
        result = revived.query("g", list(range(20)), min_version=tokens[-1])
        np.testing.assert_allclose(
            np.asarray(result.beliefs), np.asarray(reference.beliefs),
            rtol=1e-6, atol=1e-9,
        )

    def test_deferred_acks_survive_too(self, tmp_path, graph_path):
        # The crash window applied acks open: acked, durable, never
        # propagated.  Recovery must still reach the acked version.
        service = durable_service(tmp_path, graph_path)

        def killed(applied):
            raise RuntimeError("worker killed before the solve")

        service.propagate_and_publish = killed
        batcher = MicroBatcher(service, start=False)
        future = batcher.submit_delta("g", edge_delta(3, 9), ack="applied")
        batcher.flush_pending()
        token = future.result(timeout=0).token

        revived = InferenceService(queue_dir=tmp_path / "queues")
        revived.load_graph(
            "g", path=graph_path, fraction=0.1, seed=1, recover=True
        )
        assert revived.query("g", [3], min_version=token).graph_version == token

    def test_fresh_load_drops_the_stale_log(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        service.apply_delta("g", edge_delta(0, 1))
        assert service.queue.has_log("g")

        fresh = InferenceService(queue_dir=tmp_path / "queues")
        fresh.load_graph("g", path=graph_path, fraction=0.1, seed=1)
        assert not fresh.queue.has_log("g")
        assert fresh.info("g")["graph_version"] == 0

    def test_retry_by_id_is_idempotent(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        first = service.apply_delta("g", edge_delta(0, 1), delta_id="d-1")
        retry = service.apply_delta("g", edge_delta(0, 1), delta_id="d-1")
        assert first.token == retry.token == 1
        assert service.info("g")["graph_version"] == 1  # applied once

    def test_retry_survives_recovery(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        service.apply_delta("g", edge_delta(0, 1), delta_id="d-1")

        revived = InferenceService(queue_dir=tmp_path / "queues")
        revived.load_graph(
            "g", path=graph_path, fraction=0.1, seed=1, recover=True
        )
        retry = revived.apply_delta("g", edge_delta(0, 1), delta_id="d-1")
        assert retry.token == 1
        assert revived.info("g")["graph_version"] == 1

    def test_lost_log_trips_the_fence(self, tmp_path, graph_path):
        service = durable_service(tmp_path, graph_path)
        token = service.apply_delta("g", edge_delta(0, 1)).token
        # Simulate operator error: the queue directory is wiped between the
        # crash and the recovery.
        service.queue.path_for("g").unlink()
        revived = InferenceService(queue_dir=tmp_path / "queues")
        revived.load_graph(
            "g", path=graph_path, fraction=0.1, seed=1, recover=True
        )
        with pytest.raises(ServeError) as excinfo:
            revived.query("g", [0], min_version=token)
        assert excinfo.value.status == 412


# ------------------------------------------------- concurrent interleavings
class TestConcurrentReadYourWrites:
    def test_writers_always_read_their_own_writes(self, tmp_path, graph_path):
        """Concurrent writers + readers: every ack token must verify."""
        service = durable_service(tmp_path, graph_path)
        failures: list[str] = []
        barrier = threading.Barrier(4)
        batcher = MicroBatcher(service, max_latency_seconds=0.001)

        def writer(offset: int) -> None:
            barrier.wait()
            for i in range(6):
                # Reveal deltas: always valid, never collide with the
                # generated graph's existing edges.
                delta = GraphDelta.from_dict(
                    {"reveal": [[offset + i, i % 3]]}
                )
                # Direct calls propagate in-line; applied acks through
                # the batcher return before its solve publishes.
                token = (
                    service.apply_delta("g", delta) if i % 2 == 0
                    else batcher.apply_delta("g", delta, ack="applied")
                ).token
                try:
                    result = service.query(
                        "g", [offset + i], min_version=token
                    )
                except ServeError as exc:  # pragma: no cover - the failure
                    failures.append(f"token {token}: {exc}")
                    continue
                if result.graph_version < token:
                    failures.append(
                        f"answered below token: {result.graph_version} < {token}"
                    )

        threads = [
            threading.Thread(target=writer, args=(offset,))
            for offset in (0, 100, 200, 300)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batcher.close()
        assert failures == []
        assert service.info("g")["graph_version"] == 24

    def test_batched_writers_read_their_writes(self, tmp_path, graph_path):
        """The same contract through the micro-batcher's coalesced path."""
        service = durable_service(tmp_path, graph_path)
        failures: list[str] = []
        with MicroBatcher(service, max_latency_seconds=0.001) as batcher:
            barrier = threading.Barrier(4)

            def writer(offset: int) -> None:
                barrier.wait()
                for i in range(5):
                    delta = {"reveal": [[offset + i, i % 3]]}
                    ack = "applied" if i % 2 else "propagated"
                    outcome = batcher.apply_delta(
                        "g", delta, ack=ack,
                        delta_id=f"w{offset}-{i}",
                    )
                    token = outcome.tokens[0]
                    if token is None:
                        failures.append(f"no token for w{offset}-{i}")
                        continue
                    result = batcher.query(
                        "g", [offset + i], min_version=token
                    )
                    if result.graph_version < token:
                        failures.append(
                            f"answered below token: "
                            f"{result.graph_version} < {token}"
                        )

            threads = [
                threading.Thread(target=writer, args=(offset,))
                for offset in (0, 90, 180, 270)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []
        assert service.info("g")["graph_version"] == 20

"""Shared fixtures: small deterministic graphs used across the test suite."""

from __future__ import annotations

import http.client
import json
import statistics
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.compatibility import homophily_compatibility, skew_compatibility
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph


@pytest.fixture(scope="session")
def rng():
    """Session-wide deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def triangle_graph() -> Graph:
    """A 4-node path/triangle mix with known structure.

    Edges: 0-1, 1-2, 2-0 (triangle) and 2-3 (pendant).  Labels: 0, 1, 2, 0.
    """
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    return Graph.from_edges(edges, n_nodes=4, labels=np.array([0, 1, 2, 0]), n_classes=3)


@pytest.fixture(scope="session")
def path_graph() -> Graph:
    """A 5-node path 0-1-2-3-4 with alternating labels (0, 1, 0, 1, 0)."""
    edges = [(i, i + 1) for i in range(4)]
    return Graph.from_edges(edges, n_nodes=5, labels=np.array([0, 1, 0, 1, 0]), n_classes=2)


@pytest.fixture(scope="session")
def star_graph() -> Graph:
    """A 6-node star with hub 0 (label 0) and leaves labeled 1."""
    edges = [(0, leaf) for leaf in range(1, 6)]
    labels = np.array([0, 1, 1, 1, 1, 1])
    return Graph.from_edges(edges, n_nodes=6, labels=labels, n_classes=2)


@pytest.fixture(scope="session")
def heterophily_graph() -> Graph:
    """Medium synthetic graph with the paper's h=3 heterophilous matrix."""
    return generate_graph(
        1_500, 9_000, skew_compatibility(3, h=3.0), seed=11, name="heterophily"
    )


@pytest.fixture(scope="session")
def strong_heterophily_graph() -> Graph:
    """Synthetic graph with a strongly skewed (h=8) compatibility matrix."""
    return generate_graph(
        1_200, 9_600, skew_compatibility(3, h=8.0), seed=23, name="strong-heterophily"
    )


@pytest.fixture(scope="session")
def homophily_graph() -> Graph:
    """Synthetic graph with an assortative (homophilous) compatibility matrix."""
    return generate_graph(
        1_000, 6_000, homophily_compatibility(3, h=5.0), seed=5, name="homophily"
    )


@pytest.fixture(scope="session")
def imbalanced_graph() -> Graph:
    """Synthetic graph with the paper's imbalanced prior alpha=[1/6, 1/3, 1/2]."""
    return generate_graph(
        1_200,
        7_200,
        skew_compatibility(3, h=3.0),
        class_prior=np.array([1 / 6, 1 / 3, 1 / 2]),
        seed=31,
        name="imbalanced",
    )


@pytest.fixture()
def disconnected_graph() -> Graph:
    """Two disjoint edges plus an isolated node (tests edge cases)."""
    edges = [(0, 1), (2, 3)]
    labels = np.array([0, 0, 1, 1, -1])
    adjacency = Graph.from_edges(edges, n_nodes=5).adjacency
    return Graph(adjacency=adjacency, labels=labels, n_classes=2)


@pytest.fixture(scope="session")
def dense_small_adjacency() -> sp.csr_matrix:
    """A small dense-ish random symmetric adjacency for linear-algebra tests."""
    rng = np.random.default_rng(3)
    dense = (rng.random((12, 12)) < 0.35).astype(float)
    dense = np.triu(dense, k=1)
    dense = dense + dense.T
    return sp.csr_matrix(dense)


class _RecordingWriter:
    """A handler's socket writer that keeps a copy of every write."""

    def __init__(self, raw, writes: list[bytes]) -> None:
        self._raw = raw
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def keepalive_probe(monkeypatch):
    """Send ``n`` sequential requests on one keep-alive connection.

    ``probe(handler_class, port, method, path, payload=None, n=20)`` returns
    the median round trip in seconds, every ``wfile.write`` the handlers of
    ``handler_class`` made meanwhile, and each response body.
    """

    def probe(handler_class, port, method, path, payload=None, n=20):
        writes: list[bytes] = []
        setup = handler_class.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = _RecordingWriter(handler.wfile, writes)

        monkeypatch.setattr(handler_class, "setup", recording_setup)
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        seconds, replies = [], []
        try:
            for _ in range(n):
                start = time.perf_counter()
                conn.request(method, path, body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                replies.append(response.read())
                seconds.append(time.perf_counter() - start)
                assert response.status == 200, replies[-1]
        finally:
            conn.close()
        return statistics.median(seconds), writes, replies

    return probe


"""Workload inputs: specs, seeded generation, fresh edges and fingerprints.

Each workload runs on one fixed planted graph (``generate_graph`` with
``GRAPH_SEED``), so that runs with different ``--seed`` values measure the
same graph: the spectral radius alone takes 130 to 190 ms on graphs drawn
with different seeds.  ``--seed`` draws everything else: the stratified
seed labels (``stratified_seed_labels``), the pool of fresh edges the
stream and serve workloads insert, and their steps and requests.  The
program under test only ever receives the built graph and the seeds.

Run as a script, this module writes one workload's inputs into a directory
and prints their fingerprint as JSON::

    python3 inputs.py pipeline-sparse --seed 1 --scale full --out DIR

The benchmark runs it in a child process, so that generating the inputs
counts neither toward set-up time nor toward the measured process's peak
memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
GRAPH_SEED = 7
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

# Stream plan: blocks of 25 steps; each step adds 10 fresh edges and
# reveals 2 labels, the last step of a block adds 1% of the edges instead.
# A step also removes the edges the same position added one block earlier,
# so the graph stays the same size however many steps a run gets through.
STREAM_BLOCK = 25
STREAM_SMALL_EDGES = 10
STREAM_BIG_FRACTION = 0.01
STREAM_REVEALS = 2
# Serve deltas each insert one fresh edge, and no edge twice: this is more
# than a 15 s closed loop at 40,000 requests/s would insert.
SERVE_FRESH_EDGES = 65_536


@dataclass(frozen=True)
class Spec:
    kind: str  # "pipeline", "stream" or "serve"
    nodes: int
    edges: int
    classes: int
    skew: float
    fraction: float

    @property
    def big_step_edges(self) -> int:
        return max(1, int(STREAM_BIG_FRACTION * self.edges))

    @property
    def block_edges(self) -> int:
        return (STREAM_BLOCK - 1) * STREAM_SMALL_EDGES + self.big_step_edges

    @property
    def fresh_edges(self) -> int:
        if self.kind == "stream":
            return 2 * self.block_edges  # the block being added, the block being removed
        if self.kind == "serve":
            return SERVE_FRESH_EDGES
        return 0


SPECS = {
    "pipeline-sparse": Spec("pipeline", 100_000, 1_000_000, 3, 3.0, 0.001),
    "pipeline-classes": Spec("pipeline", 20_000, 200_000, 8, 8.0, 0.01),
    # At f=0.01 even the gold-standard H labels this sparse graph at chance
    # (macro accuracy 0.33); at f=0.05 DCEr and gold both reach 0.385.
    "stream-mixed": Spec("stream", 100_000, 150_000, 3, 3.0, 0.05),
    # The graph of BENCH_serve.json.
    "serve-ladder": Spec("serve", 60_000, 120_000, 3, 3.0, 0.05),
}

# The same code paths at a size the self-test runs in seconds (DCEr's
# optimizer cost grows with k, not with the graph, so k shrinks too).
SMOKE = {
    "pipeline-sparse": dict(nodes=5_000, edges=50_000, fraction=0.02),
    "pipeline-classes": dict(nodes=2_000, edges=20_000, classes=4, fraction=0.05),
    "stream-mixed": dict(nodes=5_000, edges=7_500, fraction=0.05),
    "serve-ladder": dict(nodes=3_000, edges=6_000),
}

SCALES = ("full", "smoke")


def spec_for(workload: str, scale: str) -> Spec:
    spec = SPECS[workload]
    return replace(spec, **SMOKE[workload]) if scale == "smoke" else spec


def fresh_edges(adjacency, count: int, rng) -> np.ndarray:
    """``count`` distinct node pairs ``(u, v)``, ``u < v``, absent from ``adjacency``."""
    n_nodes = adjacency.shape[0]
    found = np.empty((0, 2), dtype=np.int64)
    while found.shape[0] < count:
        pairs = np.sort(rng.integers(0, n_nodes, size=(2 * count + 8, 2)), axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        present = np.asarray(adjacency[pairs[:, 0], pairs[:, 1]]).ravel() != 0
        found = np.unique(np.vstack([found, pairs[~present]]), axis=0)
    return found[rng.permutation(found.shape[0])[:count]]


def label_draw(truth: np.ndarray, spec: Spec, seed: int, index: int = 0) -> np.ndarray:
    """The ``index``-th stratified seed-label draw of a run with ``seed``.

    Draw 0 is the one the serve worker makes itself from the ``fraction``
    and ``seed`` of its load request.
    """
    from repro import stratified_seed_labels

    rng = seed if index == 0 else np.random.default_rng([seed, index])
    return stratified_seed_labels(truth, fraction=spec.fraction, rng=rng)


def fingerprint(edge_list: np.ndarray, seeds: np.ndarray) -> str:
    """SHA-256 of the edge list and the seed labels, both as little-endian int64."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(edge_list, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(seeds, dtype="<i8").tobytes())
    return digest.hexdigest()


def recorded_fingerprint(workload: str, scale: str) -> str | None:
    """The committed fingerprint of ``workload`` at ``scale`` for :data:`DEFAULT_SEED`."""
    if not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(scale)


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write ``graph.npz``, ``seeds.npy`` and ``fresh.npy`` into ``out``."""
    from repro import generate_graph, skew_compatibility
    from repro.graph.io import save_graph_npz

    spec = spec_for(workload, scale)
    graph = generate_graph(
        spec.nodes, spec.edges, skew_compatibility(spec.classes, h=spec.skew),
        seed=GRAPH_SEED, name=workload,
    )
    seeds = label_draw(graph.require_labels(), spec, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_graph_npz(graph, out / "graph.npz")
    np.save(out / "seeds.npy", seeds)
    rng = np.random.default_rng([seed, 1])
    np.save(out / "fresh.npy", fresh_edges(graph.adjacency, spec.fresh_edges, rng))
    return {"fingerprint": fingerprint(graph.edge_list(), seeds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.scale, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

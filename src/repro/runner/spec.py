"""Declarative run specifications with deterministic content hashes.

A paper figure is a *grid*: the cross product of graph configurations,
estimators, propagators, label fractions and repetitions.  This module turns
that grid into data:

* :class:`RunSpec` — one experiment point, fully described by plain JSON
  values (graph config dict, registry names, kwargs, fraction, repetition).
  Its :attr:`~RunSpec.content_hash` is the SHA-256 of the canonical JSON
  encoding, so two specs describe the same experiment iff their hashes are
  equal — the key of the content-addressed result store.
* :class:`GridSpec` — the declarative grid.  :meth:`GridSpec.expand`
  enumerates every :class:`RunSpec` in a deterministic order; construction
  validates estimator/propagator names and kwarg names against the
  registries up front so a typo fails before any work is scheduled.
* :func:`build_graph` — materialize the graph described by a graph config
  dict (synthetic generator, dataset stand-in, or an ``.npz`` file).

Determinism: every run's RNG seed is *derived from its content hash*
(:attr:`RunSpec.run_seed`), so a run's outcome depends only on its
description — not on scheduling order, worker identity, or how many other
runs share the grid.  This is what makes parallel execution bitwise-equal to
serial execution and cached results trustworthy.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# Importing these modules populates the PROPAGATORS/ESTIMATORS registries the
# spec layer validates names against.
import repro.core.estimators  # noqa: F401  (registers estimators)
import repro.propagation  # noqa: F401  (registers propagators)
from repro.core.compatibility import homophily_compatibility, skew_compatibility
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.generator import generate_graph
from repro.graph.graph import Graph
from repro.graph.io import load_graph_npz
from repro.propagation.engine import ESTIMATORS, PROPAGATORS
from repro.utils.placement import assign_hex

__all__ = [
    "RunSpec",
    "GridSpec",
    "build_graph",
    "canonical_json",
    "content_hash",
]

GRAPH_KINDS = ("generate", "dataset", "npz")


def canonical_json(payload) -> str:
    """Serialize ``payload`` to the canonical JSON form used for hashing.

    Keys are sorted and separators minimal, so logically equal dictionaries
    always produce the same byte string.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ------------------------------------------------------------- graph configs
def _validate_graph_config(config: dict) -> dict:
    """Check a graph config dict and return it with the kind defaulted."""
    if not isinstance(config, dict):
        raise ValueError(f"graph config must be a dict, got {type(config).__name__}")
    config = dict(config)
    kind = config.setdefault("kind", "generate")
    if kind not in GRAPH_KINDS:
        raise ValueError(
            f"unknown graph config kind {kind!r}; choose from {sorted(GRAPH_KINDS)}"
        )
    if kind == "generate":
        for required in ("n_nodes", "n_edges"):
            if required not in config:
                raise ValueError(f"generate graph config needs {required!r}")
        pattern = config.get("pattern", "skew")
        if pattern not in ("skew", "homophily"):
            raise ValueError(
                f"unknown compatibility pattern {pattern!r}; "
                "choose 'skew' or 'homophily'"
            )
    elif kind == "dataset":
        name = config.get("name")
        if name not in dataset_names():
            raise ValueError(
                f"unknown dataset {name!r}; available: {dataset_names()}"
            )
    elif kind == "npz":
        if "path" not in config:
            raise ValueError("npz graph config needs 'path'")
    return config


def build_graph(config: dict) -> Graph:
    """Materialize the :class:`~repro.graph.graph.Graph` a config describes.

    Three kinds are supported:

    * ``{"kind": "generate", "n_nodes": ..., "n_edges": ..., "n_classes": 3,
      "h": 3.0, "pattern": "skew"|"homophily", "distribution": "uniform",
      "seed": 0}`` — the planted-compatibility synthetic generator;
    * ``{"kind": "dataset", "name": "cora", "scale": 0.2, "seed": 0}`` — a
      real-world dataset stand-in;
    * ``{"kind": "npz", "path": "graph.npz"}`` — a stored graph bundle.
      Note the content hash covers the *path*, not the file bytes; re-using a
      path for a different graph invalidates cached results silently.
    """
    config = _validate_graph_config(config)
    kind = config["kind"]
    if kind == "generate":
        n_classes = int(config.get("n_classes", 3))
        h = float(config.get("h", 3.0))
        if config.get("pattern", "skew") == "homophily":
            compatibility = homophily_compatibility(n_classes, h=h)
        else:
            compatibility = skew_compatibility(n_classes, h=h)
        return generate_graph(
            int(config["n_nodes"]),
            int(config["n_edges"]),
            compatibility,
            distribution=config.get("distribution", "uniform"),
            seed=int(config.get("seed", 0)),
            name=str(config.get("name", "grid-synthetic")),
        )
    if kind == "dataset":
        return load_dataset(
            config["name"],
            scale=config.get("scale"),
            seed=int(config.get("seed", 0)),
        )
    return load_graph_npz(config["path"])


# ------------------------------------------------------------------ run spec
def _normalize_algorithm(entry, registry: dict, registry_label: str) -> tuple[str, dict]:
    """Turn ``"name"`` or ``{"name": ..., "kwargs": {...}}`` into a pair."""
    if isinstance(entry, str):
        name, kwargs = entry, {}
    elif isinstance(entry, dict):
        name = entry.get("name")
        kwargs = dict(entry.get("kwargs", {}))
    else:
        raise ValueError(
            f"{registry_label} entries must be names or {{name, kwargs}} dicts, "
            f"got {type(entry).__name__}"
        )
    if name not in registry:
        raise ValueError(
            f"unknown {registry_label} {name!r}; registered: {sorted(registry)}"
        )
    parameters = inspect.signature(registry[name]).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        unknown = sorted(set(kwargs) - set(parameters))
        if unknown:
            raise ValueError(
                f"{registry_label} {name!r} takes no argument {unknown[0]!r}; "
                f"accepted: {', '.join(sorted(parameters)) or 'none'}"
            )
    return name, kwargs


@dataclass
class RunSpec:
    """One fully described experiment point of a grid.

    All fields are plain JSON values so the spec pickles cheaply, round-trips
    through the store, and hashes canonically.  ``experiment_kwargs`` are
    forwarded verbatim to :func:`repro.eval.experiment.run_experiment`
    (e.g. ``{"n_propagation_iterations": 10}``).
    """

    graph: dict
    estimator: str
    label_fraction: float
    estimator_kwargs: dict = field(default_factory=dict)
    propagator: str = "linbp"
    propagator_kwargs: dict = field(default_factory=dict)
    repetition: int = 0
    base_seed: int = 0
    experiment_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.graph = _validate_graph_config(self.graph)
        self.estimator, merged = _normalize_algorithm(
            {"name": self.estimator, "kwargs": self.estimator_kwargs},
            ESTIMATORS,
            "estimator",
        )
        self.estimator_kwargs = merged
        self.propagator, merged = _normalize_algorithm(
            {"name": self.propagator, "kwargs": self.propagator_kwargs},
            PROPAGATORS,
            "propagator",
        )
        self.propagator_kwargs = merged
        self.label_fraction = float(self.label_fraction)
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError(
                f"label_fraction must be in (0, 1], got {self.label_fraction}"
            )
        self.repetition = int(self.repetition)
        self.base_seed = int(self.base_seed)

    def to_dict(self) -> dict:
        """Plain-JSON description; the canonical form drives the hash."""
        return {
            "graph": self.graph,
            "estimator": self.estimator,
            "estimator_kwargs": self.estimator_kwargs,
            "propagator": self.propagator,
            "propagator_kwargs": self.propagator_kwargs,
            "label_fraction": self.label_fraction,
            "repetition": self.repetition,
            "base_seed": self.base_seed,
            "experiment_kwargs": self.experiment_kwargs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        return cls(
            graph=payload["graph"],
            estimator=payload["estimator"],
            estimator_kwargs=payload.get("estimator_kwargs", {}),
            propagator=payload.get("propagator", "linbp"),
            propagator_kwargs=payload.get("propagator_kwargs", {}),
            label_fraction=payload["label_fraction"],
            repetition=payload.get("repetition", 0),
            base_seed=payload.get("base_seed", 0),
            experiment_kwargs=payload.get("experiment_kwargs", {}),
        )

    @property
    def content_hash(self) -> str:
        """SHA-256 of the canonical spec — the store key of this run."""
        return content_hash(self.to_dict())

    @property
    def graph_hash(self) -> str:
        """Hash of the graph config alone — the executor's batching key."""
        return content_hash(self.graph)

    @property
    def run_seed(self) -> int:
        """Deterministic RNG seed derived from the content hash.

        Drives the stratified seed-label sampling (and, unless overridden in
        ``estimator_kwargs``, the estimator's own randomness), so a run's
        outcome is a pure function of its description.
        """
        return int(self.content_hash[:16], 16) % (2**32)

    def label(self) -> str:
        """Short human-readable identifier used in progress lines."""
        return (
            f"{self.graph.get('name', self.graph['kind'])}"
            f"/{self.estimator}/{self.propagator}"
            f"/f={self.label_fraction:g}/r={self.repetition}"
        )


# ----------------------------------------------------------------- grid spec
@dataclass
class GridSpec:
    """The declarative cross product behind a multi-point figure.

    ``estimators`` and ``propagators`` entries are registry names or
    ``{"name": ..., "kwargs": {...}}`` dicts; graph configs are the dicts
    accepted by :func:`build_graph`.  Everything is validated eagerly so a
    grid either expands completely or fails with a message naming the valid
    choices.
    """

    graphs: list
    estimators: list
    label_fractions: list
    propagators: list = field(default_factory=lambda: ["linbp"])
    n_repetitions: int = 1
    base_seed: int = 0
    experiment_kwargs: dict = field(default_factory=dict)
    name: str = "grid"

    def __post_init__(self) -> None:
        if not self.graphs:
            raise ValueError("grid needs at least one graph config")
        if not self.estimators:
            raise ValueError("grid needs at least one estimator")
        if not self.label_fractions:
            raise ValueError("grid needs at least one label fraction")
        self.graphs = [_validate_graph_config(config) for config in self.graphs]
        self.estimators = [
            _normalize_algorithm(entry, ESTIMATORS, "estimator")
            for entry in self.estimators
        ]
        self.propagators = [
            _normalize_algorithm(entry, PROPAGATORS, "propagator")
            for entry in self.propagators
        ]
        self.label_fractions = [float(fraction) for fraction in self.label_fractions]
        self.n_repetitions = int(self.n_repetitions)
        if self.n_repetitions < 1:
            raise ValueError("n_repetitions must be >= 1")
        self.base_seed = int(self.base_seed)

    @property
    def n_runs(self) -> int:
        """Number of individual runs the grid expands to."""
        return (
            len(self.graphs)
            * len(self.estimators)
            * len(self.propagators)
            * len(self.label_fractions)
            * self.n_repetitions
        )

    def expand(self) -> list[RunSpec]:
        """Enumerate every :class:`RunSpec` in deterministic order.

        Order: graphs (outermost), propagators, label fractions, repetitions,
        estimators (innermost) — estimators at the same (fraction, repetition)
        are adjacent, mirroring the paired comparison of the sweep functions.
        """
        runs: list[RunSpec] = []
        for graph_config in self.graphs:
            for propagator_name, propagator_kwargs in self.propagators:
                for fraction in self.label_fractions:
                    for repetition in range(self.n_repetitions):
                        for estimator_name, estimator_kwargs in self.estimators:
                            runs.append(
                                RunSpec(
                                    graph=graph_config,
                                    estimator=estimator_name,
                                    estimator_kwargs=dict(estimator_kwargs),
                                    propagator=propagator_name,
                                    propagator_kwargs=dict(propagator_kwargs),
                                    label_fraction=fraction,
                                    repetition=repetition,
                                    base_seed=self.base_seed,
                                    experiment_kwargs=dict(self.experiment_kwargs),
                                )
                            )
        return runs

    def shard(self, index: int, n_shards: int) -> list[RunSpec]:
        """Deterministically partition the grid's runs into ``n_shards`` parts.

        A run belongs to the shard its content hash maps to, so the
        partition depends only on the grid's description: every process
        computes the same split, shards are disjoint, and their union is
        exactly :meth:`expand`.  Combined with a shared (or later merged)
        store, ``shard(i, n)`` is how one grid spreads across machines —
        the content-addressed keys make the results trivially mergeable.

        Hashing (rather than round-robin over the expansion order) keeps
        the assignment stable under grid edits: adding a graph config or an
        estimator never moves existing runs between shards, so per-machine
        caches stay warm.  The assignment arithmetic itself lives in
        :func:`repro.utils.placement.assign_hex`, shared with the serving
        router's session placement — and pinned by a regression test so it
        can never silently move existing runs between shards.
        """
        index = int(index)
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not 0 <= index < n_shards:
            raise ValueError(
                f"shard index must be in [0, {n_shards}), got {index}"
            )
        return [
            run
            for run in self.expand()
            if assign_hex(run.content_hash, n_shards) == index
        ]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "graphs": self.graphs,
            "estimators": [
                {"name": name, "kwargs": kwargs} for name, kwargs in self.estimators
            ],
            "propagators": [
                {"name": name, "kwargs": kwargs} for name, kwargs in self.propagators
            ],
            "label_fractions": self.label_fractions,
            "n_repetitions": self.n_repetitions,
            "base_seed": self.base_seed,
            "experiment_kwargs": self.experiment_kwargs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GridSpec":
        unknown = set(payload) - {
            "name",
            "graphs",
            "estimators",
            "propagators",
            "label_fractions",
            "n_repetitions",
            "base_seed",
            "experiment_kwargs",
        }
        if unknown:
            raise ValueError(f"unknown grid spec fields: {sorted(unknown)}")
        for required in ("graphs", "estimators", "label_fractions"):
            if required not in payload:
                raise ValueError(f"grid spec needs {required!r}")
        return cls(
            graphs=payload["graphs"],
            estimators=payload["estimators"],
            label_fractions=payload["label_fractions"],
            propagators=payload.get("propagators", ["linbp"]),
            n_repetitions=payload.get("n_repetitions", 1),
            base_seed=payload.get("base_seed", 0),
            experiment_kwargs=payload.get("experiment_kwargs", {}),
            name=payload.get("name", "grid"),
        )

    @classmethod
    def from_json(cls, path) -> "GridSpec":
        """Load a grid spec from a JSON file (the ``repro run`` input)."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: grid spec must be a JSON object")
        return cls.from_dict(payload)

    def to_json(self, path) -> Path:
        """Write the spec as formatted JSON and return the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

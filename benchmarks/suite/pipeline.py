"""Paper-pipeline workloads: fresh Graph -> DCEr fit -> spectral radius -> LinBP labels.

One operation is one pipeline run on the workload's graph for a fresh
seed-label draw (``inputs.label_draw``), so a run's median covers many
draws: how long DCEr's optimizer takes depends on the draw (420 to 680 ms
on pipeline-classes).  Every run builds a fresh :class:`Graph` from the same
CSR, so nothing an earlier run cached (operators, spectral radius) is
reused, and LinBP always runs its 10 sweeps.  The layers are timed from
outside around the public calls; the traced run also times a separate
``observed_statistics`` call to split the fit into statistics and
optimizer.

The checks compare each layer's output with a reference written here from
the paper's definitions, because a quality threshold cannot hold for every
draw: with 100 labelled nodes, 11 of 40 draws put DCEr's estimate further
than 0.15 from the gold standard.  Those distances are reported in the
traced run instead.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from inputs import label_draw
from measure import Context, Result, paired_overhead, percentile, peak_rss_mib, repeat_setup
from repro import DCEr, Graph, macro_accuracy, obs
from repro.core.statistics import observed_statistics
from repro.graph.graph import one_hot_labels
from repro.graph.io import load_graph_npz
from repro.propagation.linbp import LinBPPropagator

SWEEPS = 10
MAX_LENGTH = 5  # DCEr's longest path length
DISTANCE_WEIGHT = 10.0  # DCEr's lambda
SAFETY = 0.5  # LinBP's convergence safety factor
# Every run makes at least this many pipeline runs; accuracy is their mean,
# so it does not depend on how many draws a run gets through.
MIN_REPS = 5


@dataclass
class Rep:
    seconds: float
    graph_s: float
    fit_s: float
    spectral_s: float
    solve_s: float


def pipeline_run(adjacency, n_classes: int, seeds: np.ndarray):
    """One timed pipeline run; returns the timings, the fit and the propagation."""
    start = time.perf_counter()
    graph = Graph(adjacency=adjacency, n_classes=n_classes)
    built = time.perf_counter()
    fit = DCEr(seed=0).fit(graph, seeds)
    fitted = time.perf_counter()
    radius = graph.operators.spectral_radius()
    measured = time.perf_counter()
    result = LinBPPropagator(max_iterations=SWEEPS, tolerance=0.0).propagate(
        graph, seeds, compatibility=fit.compatibility
    )
    done = time.perf_counter()
    rep = Rep(done - start, built - start, fitted - built, measured - fitted, done - measured)
    return rep, fit, radius, result


def run(ctx: Context) -> Result:
    digests = []

    def setup():
        graph = load_graph_npz(ctx.inputs / "graph.npz")
        seeds = np.load(ctx.inputs / "seeds.npy")
        result = pipeline_run(graph.adjacency, graph.n_classes, seeds)[3]
        digests.append(hashlib.sha256(result.labels.tobytes()).hexdigest())
        return graph

    setup_s, graph = repeat_setup(setup, ctx.setups)
    adjacency, k, truth = graph.adjacency, graph.n_classes, graph.labels

    reps: list[Rep] = []
    traced: list[bool] = []
    accuracies: list[float] = []
    statistics_s: list[float] = []
    optimization_s: list[float] = []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or len(reps) < MIN_REPS:
        # The traced run makes each draw twice, traced and untraced in
        # turns, so the pairs measure the tracing overhead; the spans are
        # dropped, the layers are timed from outside.
        pair, second = divmod(len(reps), 2)
        tracing = ctx.traced and second != pair % 2
        draw = pair + 1 if ctx.traced else len(reps) + 1
        seeds = label_draw(truth, ctx.spec, ctx.seed, draw)
        previous = obs.configure_tracing([].append) if tracing else None
        try:
            rep, fit, radius, result = pipeline_run(adjacency, k, seeds)
        finally:
            if tracing:
                obs.configure_tracing(previous)
        reps.append(rep)
        traced.append(tracing)
        evaluated = np.flatnonzero(seeds < 0)
        if len(accuracies) < MIN_REPS:
            accuracies.append(macro_accuracy(truth[evaluated], result.labels[evaluated], k))
        if tracing:
            start = time.perf_counter()
            observed_statistics(adjacency, one_hot_labels(seeds, k), MAX_LENGTH)
            statistics_s.append(time.perf_counter() - start)
            optimization_s.append(fit.details["optimization_seconds"])

    out = Result(metrics={}, attempted=len(reps))
    out.notes.append(f"{len(reps)} pipeline runs, {sum(traced)} of them traced")
    out.check("deterministic_labels", len(set(digests)) == 1,
              f"{len(digests)} set-up runs on the same draw")
    gold = check(out, adjacency, seeds, truth, k, fit, radius, result)

    if not ctx.traced:
        latencies = [rep.seconds * 1e3 for rep in reps]
        out.metrics.update(
            setup_s=setup_s,
            latency_ms_p50=percentile(latencies, 50),
            accuracy=statistics.mean(accuracies),
            peak_rss_mib=peak_rss_mib(),
        )
        return out

    on = [rep for rep, flag in zip(reps, traced) if flag]
    off = [rep for rep, flag in zip(reps, traced) if not flag]
    total = sum(rep.seconds for rep in on)
    layers = {
        "pipeline.graph_share": sum(rep.graph_s for rep in on),
        "pipeline.statistics_share": sum(statistics_s),
        "pipeline.optimizer_share": sum(rep.fit_s for rep in on) - sum(statistics_s),
        "pipeline.spectral_share": sum(rep.spectral_s for rep in on),
        "pipeline.solve_share": sum(rep.solve_s for rep in on),
    }
    gold_result = LinBPPropagator(max_iterations=SWEEPS, tolerance=0.0).propagate(
        Graph(adjacency=adjacency, n_classes=k), seeds, compatibility=gold
    )
    out.metrics.update(
        {name: seconds / total for name, seconds in layers.items()},
        traced_latency_ms_p50=statistics.median(rep.seconds for rep in on) * 1e3,
        latency_ms_p95=percentile([rep.seconds * 1e3 for rep in off], 95),
        trace_overhead=paired_overhead([rep.seconds for rep in on], [rep.seconds for rep in off]),
        # The timed calls make up the whole pipeline run.
        coverage=sum(layers.values()) / total,
        **{
            "pipeline.statistics_work": int(adjacency.nnz) * k * MAX_LENGTH,
            "pipeline.optimizer_restarts": int(fit.details["n_restarts"]),
            "pipeline.optimizer_energy": float(fit.energy),
            "pipeline.optimizer_vs_reported": layers["pipeline.optimizer_share"]
            / sum(optimization_s),
            "pipeline.l2_to_gold": float(np.linalg.norm(fit.compatibility - gold)),
            "pipeline.gold_accuracy_gap": macro_accuracy(
                truth[evaluated], gold_result.labels[evaluated], k
            ) - macro_accuracy(truth[evaluated], result.labels[evaluated], k),
        },
    )
    return out


# ----------------------------------------------------------------- references
def _row_normalized(matrix: np.ndarray) -> np.ndarray:
    sums = matrix.sum(axis=1, keepdims=True)
    return np.divide(matrix, sums, out=np.zeros_like(matrix), where=sums != 0)


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    dense = np.zeros((labels.shape[0], k))
    labelled = labels >= 0
    dense[labelled, labels[labelled]] = 1.0
    return dense


def reference_statistics(adjacency, seeds: np.ndarray, k: int) -> list[np.ndarray]:
    """Row-normalised non-backtracking path statistics (Algorithm 4.4, written out)."""
    x = _one_hot(seeds, k)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()[:, None]
    counts = [adjacency @ x]
    counts.append(adjacency @ counts[0] - degrees * x)
    while len(counts) < MAX_LENGTH:
        counts.append(adjacency @ counts[-1] - (degrees - 1.0) * counts[-2])
    return [_row_normalized(x.T @ count) for count in counts]


def reference_energy(h: np.ndarray, statistics_list: list[np.ndarray]) -> float:
    """DCE energy ``sum_l lambda^(l-1) ||H^l - P^(l)||^2``."""
    power, energy = np.eye(h.shape[0]), 0.0
    for length, observed in enumerate(statistics_list):
        power = power @ h
        energy += DISTANCE_WEIGHT**length * float(np.sum((power - observed) ** 2))
    return energy


def reference_linbp(adjacency, seeds, h, scaling: float, sweeps: int) -> np.ndarray:
    """``sweeps`` LinBP updates ``F <- X~ + W F (scaling * H~)`` from ``F = X~``."""
    k = h.shape[0]
    priors = _one_hot(seeds, k)
    priors[seeds >= 0] -= 1.0 / k
    coupling = scaling * (h - 1.0 / k)
    beliefs = priors
    for _ in range(sweeps):
        beliefs = priors + (adjacency @ beliefs) @ coupling
    return beliefs


def check(out: Result, adjacency, seeds, truth, k, fit, radius, result) -> np.ndarray:
    """Check the last pipeline run against the references; returns the gold-standard H."""
    reference = reference_statistics(adjacency, seeds, k)
    error = max(
        float(np.abs(mine - ref).max())
        for mine, ref in zip(fit.details["observed_statistics"], reference)
    )
    out.check("statistics_match_reference", error <= 1e-9, f"max |diff| {error:.1e}")

    gold = _row_normalized(_one_hot(truth, k).T @ (adjacency @ _one_hot(truth, k)))
    mine = reference_energy(fit.compatibility, reference)
    theirs = reference_energy(gold, reference)
    out.check(
        "optimizer_beats_gold_energy",
        mine <= theirs * (1.0 + 1e-9),
        f"energy {mine:.6g} vs gold-standard H {theirs:.6g}",
    )

    exact = float(spla.eigsh(adjacency, k=1, which="LA", return_eigenvectors=False)[0])
    out.check(
        "spectral_radius_match_reference",
        abs(radius - exact) <= 1e-6 * exact,
        f"{radius:.9g} vs {exact:.9g}",
    )
    scaling = result.details["scaling"]
    bound = SAFETY / (exact * float(np.abs(np.linalg.eigvals(fit.compatibility - 1.0 / k)).max()))
    out.check(
        "linbp_scaling_within_bound",
        bound / (1.0 + 2.0**-6) <= scaling <= bound * (1.0 + 1e-9),
        f"epsilon {scaling:.6g}, bound {bound:.6g}",
    )
    expected = reference_linbp(adjacency, seeds, fit.compatibility, scaling, result.n_iterations)
    error = float(np.abs(result.beliefs - expected).max())
    out.check(
        "linbp_match_reference",
        error <= 1e-9 * max(1.0, float(np.abs(expected).max())),
        f"max |diff| {error:.1e} after {result.n_iterations} sweeps",
    )
    out.attempted += len(out.checks)
    out.failed += sum(not ok for _, ok, _ in out.checks)
    return gold

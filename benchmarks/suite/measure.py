"""What every workload shares: its run context, its result, and timing helpers."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import Spec

# Set-up runs this many times per run (twice at smoke scale); ``setup_s``
# is the median.
SETUPS = 5


@dataclass
class Context:
    workload: str
    spec: Spec
    seed: int
    seconds: float
    traced: bool
    inputs: Path  # graph.npz, seeds.npy, fresh.npy
    work: Path  # scratch space inside the checkout, removed after the run
    src: Path  # the checkout's src/, for child processes
    setups: int


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    notes: list = field(default_factory=list)  # sample counts and such, for people

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


def repeat_setup(setup, times: int, teardown=None):
    """Run ``setup`` ``times`` times; return the median seconds and the last state.

    Each earlier state is handed to ``teardown`` before the next set-up.
    """
    durations, state = [], None
    for _ in range(times):
        if state is not None and teardown is not None:
            teardown(state)
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), state


def paired_overhead(traced: list[float], untraced: list[float]) -> float:
    """Median ratio of each traced operation to the untraced one paired with it, minus one."""
    return statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib(pid="self") -> float:
    """A process's peak resident set size (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")

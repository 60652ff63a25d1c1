"""Compare two sets of runs: ``run.py compare BASE_FILE... -- NEW_FILE...``.

A result file holds the standard output of one run: its first line names
the workload, its last line is the JSON result.  For every workload and
metric the table shows each side's median and quartiles and a verdict:

* ``worse``: the new median is worse than the base median by more than the
  metric's bound from BENCHMARK.json;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, unless every new run beats every base run
  (``better``) or loses to every one (``worse``);
* ``better``: the new run wins at least 9 of 10 pairs (runs are paired in
  the order given) and the medians differ by more than the base quartile
  distance;
* ``same``: anything else.

Per-layer metrics have no bound, so their rows carry no verdict.  Exits 1
when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def read_result(path: Path) -> tuple[str, dict]:
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    header = dict(field.split("=", 1) for field in lines[0].split() if "=" in field)
    return f"{header['workload']} trace={header['trace']}", json.loads(lines[-1])["metrics"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def verdict(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    b_low, b_mid, b_high = quartiles(base)
    n_low, n_mid, n_high = quartiles(new)
    gain = sign * (n_mid - b_mid)  # positive when the new median is better
    worse_than_bound = gain < -bound * abs(b_mid)
    if (b_high - b_low) > bound * abs(b_mid) or (n_high - n_low) > bound * abs(n_mid):
        if min(sign * n for n in new) > max(sign * b for b in base):
            return "better"
        if worse_than_bound and max(sign * n for n in new) < min(sign * b for b in base):
            return "worse"
        return "unresolved"
    if worse_than_bound:
        return "worse"
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    if gain > b_high - b_low and wins >= 0.9 * min(len(base), len(new)):
        return "better"
    return "same"


def main(argv) -> int:
    if "--" not in argv:
        print("usage: run.py compare BASE_FILE... -- NEW_FILE...", file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = []
    for paths in (argv[:split], argv[split + 1:]):
        grouped: dict[str, list[dict]] = {}
        for path in paths:
            key, metrics = read_result(Path(path))
            grouped.setdefault(key, []).append(metrics)
        sides.append(grouped)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry for entry in benchmark["end_to_end"]}

    print(f"{'workload':32s} {'metric':34s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'change':>8s}  verdict")
    worse = False
    for key in sorted(set(sides[0]) & set(sides[1])):
        base_runs, new_runs = sides[0][key], sides[1][key]
        for name, metric in base_runs[0].items():
            base = [run[name]["value"] for run in base_runs]
            new = [run[name]["value"] for run in new_runs if name in run]
            if not new:
                continue
            b_low, b_mid, b_high = quartiles(base)
            n_low, n_mid, n_high = quartiles(new)
            change = (n_mid - b_mid) / abs(b_mid) if b_mid else 0.0
            entry = bounds.get(name)
            label = "-" if entry is None else verdict(
                base, new, entry["bound"], entry["better"] == "higher"
            )
            worse |= label == "worse"
            print(f"{key:32s} {name + ' (' + metric['unit'] + ')':34s} "
                  f"{f'{b_mid:.4g} [{b_low:.4g}, {b_high:.4g}]':>30s} "
                  f"{f'{n_mid:.4g} [{n_low:.4g}, {n_high:.4g}]':>30s} {change:>+8.1%}  {label}")
    return 1 if worse else 0

"""CI gate: compare a fresh benchmark JSON against a committed baseline.

Usage: ``python scripts/bench_check.py FRESH BASELINE [options]``

The committed ``BENCH_*.json`` files are performance *trajectories*, not
contracts — CI machines are noisy and usually run smaller configurations
than the baselines were recorded on.  So by default this gate checks only
the **scale-free** metrics, the ones that must hold at any graph size:

* correctness — every ``*_deviation`` value stays under ``--max-deviation``
  (the streaming contract: incremental answers match the batch re-solve);
* invariants — mismatch counters are zero, mismatch flags are false,
  ``reflected``/``staleness_reset`` probes are true, ``errors`` lists are
  empty;
* instrumentation budget — every ``*overhead_fraction`` metric (metrics
  recording and sampled tracing alike) stays under ``--max-overhead``
  (looser than the 2% recording budget: CI medians of millisecond steps
  are noisy);
* speedups — each ``*speedup*`` metric stays above
  ``speedup_fraction * min(baseline, speedup_cap)``.  The cap keeps the
  floor honest for huge baseline speedups (a 500x cached replay need only
  stay above ``0.5 * 4 = 2x``), while small baselines (localized vs warm
  at 1.1x) get a proportional floor.  A ``speedup_N_workers`` ratio is
  reported as *not measurable* and not gated when the fresh run's
  ``workers_sweep.host_cpus`` is below ``N``: a pool cannot outrun the
  CPUs it shares.

Raw timings (``*_seconds``, ``*_ms``, ``*_per_second``) are compared only
with ``--check-timings``, which is only meaningful when the fresh run used
the baseline's exact configuration on comparable hardware.

Exit status: 0 all checks pass, 1 regression found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Config-describing keys: differences here mean the runs are not comparable
# at the timing level, which is worth a warning but never a failure.
CONFIG_KEYS = {"graph", "workload", "grid", "n_workers", "n_repeats",
               "max_iterations", "repeats"}

# Invariant keys: (expected truthiness). Checked on the fresh run alone.
TRUE_FLAGS = {"reflected", "staleness_reset"}
FALSE_FLAGS = {"records_mismatch"}
ZERO_COUNTERS = {"parallel_serial_mismatches"}

WORKER_SPEEDUP = re.compile(r"speedup_(\d+)_workers")


class Check:
    """One comparison outcome: a dotted path, a verdict, and the numbers.

    ``ok`` is None for a metric the fresh run's host could not measure.
    """

    def __init__(self, path: str, ok: bool | None, detail: str):
        self.path = path
        self.ok = ok
        self.detail = detail

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Check({self.path!r}, ok={self.ok})"


def is_timing_key(key: str) -> bool:
    return key.endswith(("_seconds", "_ms")) or key.endswith("_per_second")


def higher_is_better(key: str) -> bool:
    return key.endswith("_per_second")


def record_key(entry: dict) -> tuple | None:
    """Identity of a benchmark record, for cross-file matching."""
    if not isinstance(entry, dict):
        return None
    keys = [k for k in ("propagator", "delta_fraction", "name") if k in entry]
    if not keys:
        return None
    return tuple((k, entry[k]) for k in keys)


def pair_lists(fresh: list, baseline: list):
    """Match record lists by identity keys, falling back to position."""
    baseline_by_key = {}
    for entry in baseline:
        key = record_key(entry)
        if key is not None:
            baseline_by_key[key] = entry
    for index, entry in enumerate(fresh):
        key = record_key(entry)
        if key is not None:
            yield str(dict(key)), entry, baseline_by_key.get(key)
        elif index < len(baseline):
            yield f"[{index}]", entry, baseline[index]
        else:
            yield f"[{index}]", entry, None


def compare(fresh, baseline, args, path="") -> list[Check]:
    """Walk both documents, emitting one Check per gated metric."""
    checks: list[Check] = []

    def at(key) -> str:
        return f"{path}.{key}" if path else str(key)

    if isinstance(fresh, dict):
        for key, value in fresh.items():
            base_value = baseline.get(key) if isinstance(baseline, dict) else None
            if key in CONFIG_KEYS:
                if base_value is not None and base_value != value:
                    print(f"note: {at(key)} differs from baseline "
                          f"(fresh run uses its own configuration)")
                continue
            if isinstance(value, dict):
                checks.extend(compare(value, base_value or {}, args, at(key)))
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                for label, entry, base_entry in pair_lists(value, base_value or []):
                    checks.extend(
                        compare(entry, base_entry or {}, args, f"{at(key)}{label}")
                    )
            else:
                checks.extend(check_scalar(at(key), key, value, base_value, args))
    return checks


def check_scalar(full_path, key, value, base_value, args) -> list[Check]:
    if key in TRUE_FLAGS:
        return [Check(full_path, value is True, f"expected true, got {value!r}")]
    if key in FALSE_FLAGS:
        return [Check(full_path, value is False, f"expected false, got {value!r}")]
    if key in ZERO_COUNTERS:
        return [Check(full_path, value == 0, f"expected 0, got {value!r}")]
    if key == "errors":
        return [Check(full_path, value == [], f"expected no errors, got {value!r}")]
    if key.endswith("_deviation") and isinstance(value, (int, float)):
        return [Check(
            full_path, value <= args.max_deviation,
            f"{value:.3e} <= {args.max_deviation:.1e}",
        )]
    if key.endswith("overhead_fraction") and isinstance(value, (int, float)):
        return [Check(
            full_path, value <= args.max_overhead,
            f"{value:+.2%} <= {args.max_overhead:.0%}",
        )]
    if "speedup" in key and isinstance(value, (int, float)):
        if not isinstance(base_value, (int, float)):
            return []
        workers = WORKER_SPEEDUP.fullmatch(key)
        if workers and args.host_cpus is not None \
                and args.host_cpus < int(workers.group(1)):
            return [Check(
                full_path, None,
                f"not measurable: {value:.2f}x on {args.host_cpus} CPU(s) "
                f"for {workers.group(1)} workers, floor skipped",
            )]
        floor = args.speedup_fraction * min(base_value, args.speedup_cap)
        return [Check(
            full_path, value >= floor,
            f"{value:.2f}x >= {floor:.2f}x "
            f"(baseline {base_value:.2f}x)",
        )]
    if is_timing_key(key) and isinstance(value, (int, float)):
        if not args.check_timings or not isinstance(base_value, (int, float)):
            return []
        if higher_is_better(key):
            bound = base_value / (1.0 + args.timing_tolerance)
            ok = value >= bound
            detail = f"{value:.4g} >= {bound:.4g} (baseline {base_value:.4g})"
        else:
            bound = base_value * (1.0 + args.timing_tolerance)
            ok = value <= bound
            detail = f"{value:.4g} <= {bound:.4g} (baseline {base_value:.4g})"
        return [Check(full_path, ok, detail)]
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="benchmark JSON produced by this run")
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("--max-deviation", type=float, default=1e-6,
                        help="absolute bound on every *_deviation metric")
    parser.add_argument("--max-overhead", type=float, default=0.10,
                        help="bound on obs_overhead.overhead_fraction")
    parser.add_argument("--speedup-fraction", type=float, default=0.5,
                        help="fresh speedups must reach this fraction of "
                             "min(baseline, --speedup-cap)")
    parser.add_argument("--speedup-cap", type=float, default=4.0,
                        help="baseline speedups are capped here before the "
                             "fraction floor is applied")
    parser.add_argument("--check-timings", action="store_true",
                        help="also band-check raw *_seconds / *_per_second "
                             "values (same config + hardware only)")
    parser.add_argument("--timing-tolerance", type=float, default=0.5,
                        help="relative slack for --check-timings bands")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    documents = []
    for role, raw_path in (("fresh", args.fresh), ("baseline", args.baseline)):
        path = Path(raw_path)
        if not path.exists():
            print(f"bench_check: {role} file not found: {path}", file=sys.stderr)
            return 2
        try:
            documents.append(json.loads(path.read_text(encoding="utf-8")))
        except json.JSONDecodeError as exc:
            print(f"bench_check: {role} file {path} is not JSON: {exc}",
                  file=sys.stderr)
            return 2
    fresh, baseline = documents
    sweep = fresh.get("workers_sweep") if isinstance(fresh, dict) else None
    args.host_cpus = sweep.get("host_cpus") if isinstance(sweep, dict) else None

    checks = compare(fresh, baseline, args)
    unmeasured = [check for check in checks if check.ok is None]
    failures = [check for check in checks if check.ok is False]
    for check in checks:
        marker = {True: "ok  ", False: "FAIL", None: "n/a "}[check.ok]
        print(f"{marker} {check.path}: {check.detail}")
    checks = [check for check in checks if check.ok is not None]
    print(f"bench_check: {len(checks) - len(failures)}/{len(checks)} "
          f"checks passed against {args.baseline}"
          + (f" ({len(unmeasured)} not measurable)" if unmeasured else ""))
    if failures:
        print(f"bench_check: {len(failures)} regression(s):", file=sys.stderr)
        for check in failures:
            print(f"  {check.path}: {check.detail}", file=sys.stderr)
        return 1
    if not checks:
        print("bench_check: no gated metrics found — nothing was checked",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The repository benchmark: one workload per run, every metric by name and unit.

    python3 benchmarks/suite/run.py --workload pipeline-sparse --seed 1 --seconds 15 --trace 0
    python3 benchmarks/suite/run.py compare base/*.txt -- new/*.txt

A run generates the workload's inputs from ``--seed`` (in a child process),
sets up ``measure.SETUPS`` times, measures for ``--seconds``, checks the
program's outputs and prints a report whose last line is the JSON result.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload traced and reports the per-layer metrics.
A failed check makes the run exit 1; inputs that no longer match the
recorded fingerprint abort it with exit 3.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
# The module that runs each kind of workload; per-layer metric names start
# with the kind whose layers they describe.
MODULES = {"pipeline": "pipeline", "stream": "streaming", "serve": "serving"}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through every clean-up block


def _number(value):
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not a finite number")
    if isinstance(value, float) or not float(value).is_integer():
        return float(value)
    return int(value)


def host_line() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = ",".join(
        f"{key}={os.environ.get(key, 'unset')}"
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    )
    return f"host_cpus={os.cpu_count()} blas={blas} {threads}"


def metric_table(metrics: dict, benchmark: dict, kind: str, traced: bool) -> dict:
    """The declared metrics in order, with units; layers off this workload's path read 0."""
    declared = benchmark["per_layer" if traced else "end_to_end"]
    values = dict(metrics)
    for entry in declared:
        prefix = entry["name"].split(".", 1)[0]
        if traced and prefix in MODULES and prefix != kind:
            values.setdefault(entry["name"], 0)
    names = [entry["name"] for entry in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    return {
        entry["name"]: {"value": _number(values[entry["name"]]), "unit": entry["unit"]}
        for entry in declared
    }


def generate_inputs(args, src: Path, out: Path) -> dict:
    completed = subprocess.run(
        [sys.executable, str(SUITE / "inputs.py"), args.workload, "--seed", str(args.seed),
         "--scale", args.scale, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE, text=True,
        check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run(args, benchmark: dict, src: Path, work: Path) -> int:
    import inputs

    generated = generate_inputs(args, src, work / "inputs")
    if args.seed == inputs.DEFAULT_SEED:
        expected = inputs.recorded_fingerprint(args.workload, args.scale)
        if expected is not None and expected != generated["fingerprint"]:
            print(
                f"inputs changed: {args.workload} at seed {args.seed} ({args.scale} scale) "
                f"has fingerprint {generated['fingerprint']}, recorded {expected}",
                file=sys.stderr,
            )
            return 3

    from measure import SETUPS, Context

    spec = inputs.spec_for(args.workload, args.scale)
    module = importlib.import_module(MODULES[spec.kind])
    traced = bool(args.trace)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} scale={args.scale} "
          f"{host_line()}", flush=True)
    result = module.run(Context(
        workload=args.workload, spec=spec, seed=args.seed, seconds=args.seconds,
        traced=traced, inputs=work / "inputs", work=work, src=src,
        setups=SETUPS if args.scale == "full" else 2,
    ))
    metrics = metric_table(result.metrics, benchmark, spec.kind, traced)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for note in result.notes:
        print(f"  note: {note}")
    for name, ok, detail in result.checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    correct = result.failed == 0 and all(ok for _, ok, _ in result.checks)
    print(json.dumps({
        "correct": correct, "attempted": int(result.attempted), "failed": int(result.failed),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: {src} holds no repro package; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One BLAS thread, set before numpy loads: on a 2-CPU host a second
    # thread competes with the Python work (over ten seeds, pipeline-classes
    # ran at a median of 615 ms with two threads and 488 ms with one).
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=inputs.SCALES, default="full",
                        help="smoke runs the same code on small inputs (the self-test uses it)")
    args = parser.parse_args(argv)

    # The program runs with its defaults: metrics on, no trace sink.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, benchmark, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())

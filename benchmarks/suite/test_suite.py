"""Self-test of the benchmark suite at smoke scale.

Runs every workload through ``run.py``, traced and untraced, the way the
benchmark is run, and checks that each run prints every metric
BENCHMARK.json declares with its unit and passes every check.  A serve run
that is stopped half-way, or that ends normally, leaves no ``repro.cli``
process behind.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _start(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), "--workload", workload,
         "--scale", "smoke", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _programs_of(run: subprocess.Popen, workload: str) -> list[int]:
    """Live ``repro.cli`` processes started by ``run`` (named by its scratch directory)."""
    marker = f".bench_work/{workload}-{run.pid}/"
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "repro.cli" in text and marker in text:
            found.append(int(cmdline.parent.name))
    return found


def test_every_workload_prints_every_metric_and_passes_its_checks():
    runs = {
        (workload, trace): _start(workload, trace) for workload in WORKLOADS for trace in (0, 1)
    }
    try:
        for (workload, trace), run in runs.items():
            stdout, stderr = run.communicate(timeout=180)
            assert run.returncode == 0, f"{workload} trace={trace}:\n{stdout}\n{stderr[-3000:]}"
            result = json.loads(stdout.strip().splitlines()[-1])
            declared = BENCHMARK["per_layer" if trace else "end_to_end"]
            assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
                entry["name"]: entry["unit"] for entry in declared
            }
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            for entry in declared:
                assert f"{entry['name']} " in stdout and f" {entry['unit']}\n" in stdout
            assert _programs_of(run, workload) == []
    finally:
        for run in runs.values():
            if run.poll() is None:
                run.kill()
                run.wait()


def test_stopped_serve_run_leaves_no_server_behind():
    run = _start("serve-ladder", 0)
    try:
        deadline = time.monotonic() + 60
        while not _programs_of(run, "serve-ladder"):
            assert run.poll() is None and time.monotonic() < deadline, "no server started"
            time.sleep(0.05)
        run.send_signal(signal.SIGTERM)
        stdout, _ = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert run.returncode != 0
    assert "{" not in stdout
    assert _programs_of(run, "serve-ladder") == []


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _start(WORKLOADS[0], 0, cwd=tmp_path)
    stdout, _ = run.communicate(timeout=60)
    assert run.returncode != 0
    assert "{" not in stdout


def test_compare_flags_a_regression(tmp_path):
    def write(name: str, latency: float) -> str:
        path = tmp_path / name
        metrics = {
            entry["name"]: {"value": latency if entry["name"] == "latency_ms_p50" else 1.0,
                            "unit": entry["unit"]}
            for entry in BENCHMARK["end_to_end"]
        }
        path.write_text("workload=stream-mixed seed=1 trace=0\n" + json.dumps({
            "correct": True, "attempted": 1, "failed": 0, "metrics": metrics,
        }) + "\n")
        return str(path)

    base = [write(f"base{i}", 100.0 + i) for i in range(5)]
    for latency, verdict, code in ((130.0, "worse", 1), (70.0, "better", 0), (101.0, "same", 0)):
        new = [write(f"new{latency}-{i}", latency + i) for i in range(5)]
        run = subprocess.run(
            [sys.executable, str(SUITE / "run.py"), "compare", *base, "--", *new],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60,
        )
        row = next(line for line in run.stdout.splitlines() if "latency_ms_p50" in line)
        assert row.split()[-1] == verdict and run.returncode == code, run.stdout

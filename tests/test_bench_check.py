"""Tests for scripts/bench_check.py — the benchmark regression gate."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_check.py"
spec = importlib.util.spec_from_file_location("bench_check", SCRIPT)
bench_check = importlib.util.module_from_spec(spec)
sys.modules["bench_check"] = bench_check
spec.loader.exec_module(bench_check)


def stream_doc(deviation=1e-8, speedup=6.0, overhead=0.01) -> dict:
    return {
        "graph": {"n_nodes": 1000, "n_edges": 5000},
        "n_repeats": 3,
        "records": [
            {
                "propagator": "linbp",
                "delta_fraction": 0.001,
                "incremental_seconds": 0.08,
                "speedup_vs_cached": speedup,
                "localized_speedup_vs_warm": 1.3,
                "max_belief_deviation": deviation,
                "localized_max_belief_deviation": deviation,
            },
        ],
        "obs_overhead": {
            "enabled_seconds": 0.09,
            "disabled_seconds": 0.09,
            "overhead_fraction": overhead,
            "within_2pct": True,
            "n_steps_measured": 30,
        },
    }


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, fresh, baseline, *extra) -> int:
    return bench_check.main([
        write(tmp_path, "fresh.json", fresh),
        write(tmp_path, "baseline.json", baseline),
        *extra,
    ])


class TestGate:
    def test_identical_documents_pass(self, tmp_path, capsys):
        assert run(tmp_path, stream_doc(), stream_doc()) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_deviation_above_bound_fails(self, tmp_path, capsys):
        assert run(tmp_path, stream_doc(deviation=1e-3), stream_doc()) == 1
        err = capsys.readouterr().err
        assert "max_belief_deviation" in err

    def test_speedup_collapse_fails_with_floor_named(self, tmp_path, capsys):
        # Baseline 6x, cap 4 => floor 0.5 * 4 = 2x; fresh 1.2x regresses.
        assert run(tmp_path, stream_doc(speedup=1.2), stream_doc()) == 1
        err = capsys.readouterr().err
        assert "speedup_vs_cached" in err
        assert "2.00x" in err

    def test_small_baseline_speedup_gets_proportional_floor(self, tmp_path):
        # localized_speedup_vs_warm baseline 1.3 => floor 0.65; 0.9 passes.
        fresh = stream_doc()
        fresh["records"][0]["localized_speedup_vs_warm"] = 0.9
        assert run(tmp_path, fresh, stream_doc()) == 0

    def test_overhead_budget(self, tmp_path, capsys):
        assert run(tmp_path, stream_doc(overhead=0.25), stream_doc()) == 1
        assert "overhead_fraction" in capsys.readouterr().err
        assert run(
            tmp_path, stream_doc(overhead=0.25), stream_doc(),
            "--max-overhead", "0.30",
        ) == 0

    def test_sampling_overhead_gated_too(self, tmp_path, capsys):
        fresh = stream_doc()
        fresh["obs_overhead"]["sampling_overhead_fraction"] = 0.4
        baseline = stream_doc()
        baseline["obs_overhead"]["sampling_overhead_fraction"] = 0.01
        assert run(tmp_path, fresh, baseline) == 1
        assert "sampling_overhead_fraction" in capsys.readouterr().err

    def test_timings_ignored_by_default(self, tmp_path):
        fresh = stream_doc()
        fresh["records"][0]["incremental_seconds"] = 99.0  # wildly slower
        assert run(tmp_path, fresh, stream_doc()) == 0

    def test_check_timings_band(self, tmp_path, capsys):
        fresh = stream_doc()
        fresh["records"][0]["incremental_seconds"] = 99.0
        assert run(tmp_path, fresh, stream_doc(), "--check-timings") == 1
        assert "incremental_seconds" in capsys.readouterr().err

    def test_records_matched_by_identity_not_position(self, tmp_path):
        # The fresh run measured only one of the baseline's two cells; the
        # matching cell is compared, the missing one is not a failure.
        baseline = stream_doc()
        baseline["records"].insert(0, {
            "propagator": "linbp_echo", "delta_fraction": 0.05,
            "speedup_vs_cached": 100.0, "max_belief_deviation": 1e-9,
        })
        assert run(tmp_path, stream_doc(), baseline) == 0

    def test_boolean_invariants(self, tmp_path, capsys):
        doc = {"delta_mid_load": {"reflected": True, "staleness_reset": True},
               "unbatched": {"errors": []}}
        assert run(tmp_path, doc, doc) == 0
        broken = {"delta_mid_load": {"reflected": False, "staleness_reset": True},
                  "unbatched": {"errors": ["boom"]}}
        assert run(tmp_path, broken, doc) == 1
        err = capsys.readouterr().err
        assert "reflected" in err and "errors" in err

    def test_zero_counter_invariant(self, tmp_path, capsys):
        good = {"parallel_serial_mismatches": 0, "replay_speedup": 10.0}
        assert run(tmp_path, good, good) == 0
        bad = dict(good, parallel_serial_mismatches=3)
        assert run(tmp_path, bad, good) == 1
        assert "parallel_serial_mismatches" in capsys.readouterr().err

    @staticmethod
    def sweep_doc(host_cpus: int, speedup_2: float, speedup_4: float) -> dict:
        return {
            "delta_mid_load": {"reflected": True},
            "workers_sweep": {"host_cpus": host_cpus, "pool_sizes": [1, 2, 4]},
            "speedup_2_workers": speedup_2,
            "speedup_4_workers": speedup_4,
        }

    def test_worker_speedups_beyond_host_cpus_are_not_measurable(
        self, tmp_path, capsys
    ):
        # Baseline 3x at 4 workers => floor 1.5x, but a 2-CPU host cannot
        # run four workers in parallel: reported, not gated.
        fresh = self.sweep_doc(host_cpus=2, speedup_2=1.8, speedup_4=0.9)
        baseline = self.sweep_doc(host_cpus=8, speedup_2=1.9, speedup_4=3.0)
        assert run(tmp_path, fresh, baseline) == 0
        out = capsys.readouterr().out
        assert "n/a  speedup_4_workers: not measurable" in out
        assert "ok   speedup_2_workers" in out
        assert "2/2 checks passed" in out and "(1 not measurable)" in out

    def test_worker_speedups_within_host_cpus_stay_gated(self, tmp_path, capsys):
        fresh = self.sweep_doc(host_cpus=4, speedup_2=1.8, speedup_4=0.9)
        baseline = self.sweep_doc(host_cpus=8, speedup_2=1.9, speedup_4=3.0)
        assert run(tmp_path, fresh, baseline) == 1
        assert "speedup_4_workers: 0.90x >= 1.50x" in capsys.readouterr().err

    def test_speedup_missing_from_baseline_is_listed_as_new(
        self, tmp_path, capsys
    ):
        # A new or renamed speedup is reported, not silently skipped.
        fresh = self.sweep_doc(host_cpus=4, speedup_2=1.8, speedup_4=3.0)
        baseline = self.sweep_doc(host_cpus=4, speedup_2=1.9, speedup_4=3.0)
        del baseline["speedup_4_workers"]
        assert run(tmp_path, fresh, baseline) == 0
        out = capsys.readouterr().out
        assert "n/a  speedup_4_workers: new: 3.00x ungated until a " \
            "baseline records it" in out
        assert "2/2 checks passed" in out and "(1 not measurable)" in out

    def test_only_unmeasurable_metrics_means_nothing_checked(
        self, tmp_path, capsys
    ):
        doc = {"workers_sweep": {"host_cpus": 1}, "speedup_2_workers": 1.0}
        assert run(tmp_path, doc, doc) == 1
        assert "nothing was checked" in capsys.readouterr().err

    def test_no_gated_metrics_is_a_failure(self, tmp_path, capsys):
        assert run(tmp_path, {"graph": {}}, {"graph": {}}) == 1
        assert "nothing was checked" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert bench_check.main([
            str(tmp_path / "nope.json"),
            write(tmp_path, "baseline.json", stream_doc()),
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert bench_check.main([
            str(bad), write(tmp_path, "baseline.json", stream_doc()),
        ]) == 2
        assert "not JSON" in capsys.readouterr().err


class TestAgainstCommittedBaselines:
    """The committed BENCH_*.json files must pass their own gate."""

    @pytest.mark.parametrize("name", [
        "BENCH_stream.json", "BENCH_serve.json",
        "BENCH_propagation.json", "BENCH_runner.json",
    ])
    def test_baseline_passes_against_itself(self, name):
        path = Path(__file__).resolve().parent.parent / name
        assert bench_check.main([str(path), str(path), "--check-timings"]) == 0

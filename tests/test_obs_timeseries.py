"""Unit tests for the ring-buffer time-series recorder."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    counter_total,
    gauge_value,
    histogram_state,
    quantile_from_counts,
    registry_source,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def registry():
    with obs.use_registry() as reg:
        yield reg


def make_recorder(registry, clock, **kwargs):
    kwargs.setdefault("interval_seconds", 1.0)
    return TimeSeriesRecorder(
        registry_source([registry]), clock=clock, **kwargs
    )


class TestSnapshotHelpers:
    def test_counter_total_sums_matching_children(self, registry):
        registry.counter("hits_total", "", status="200").inc(3)
        registry.counter("hits_total", "", status="500").inc(2)
        registry.counter("hits_total", "", status="503").inc(1)
        snapshot = registry.snapshot()
        assert counter_total(snapshot, "hits_total") == 6
        assert counter_total(snapshot, "hits_total", {"status": "5.."}) == 3
        assert counter_total(snapshot, "hits_total", {"status": "200"}) == 3
        assert counter_total(snapshot, "absent_total") is None

    def test_selector_is_fullmatch_not_search(self, registry):
        registry.counter("hits_total", "", status="1500").inc(9)
        snapshot = registry.snapshot()
        # "5.." must not match "1500" via a substring.
        assert counter_total(snapshot, "hits_total", {"status": "5.."}) is None

    def test_gauge_value_sums_fleet_children(self, registry):
        registry.gauge("depth", "", instance="a").set(4)
        registry.gauge("depth", "", instance="b").set(6)
        assert gauge_value(registry.snapshot(), "depth") == 10

    def test_histogram_state_sums_children(self, registry):
        registry.histogram("t_seconds", "", buckets=[0.1, 1.0], m="a").observe(0.05)
        registry.histogram("t_seconds", "", buckets=[0.1, 1.0], m="b").observe(0.5)
        buckets, counts, count, total = histogram_state(
            registry.snapshot(), "t_seconds"
        )
        assert buckets == (0.1, 1.0)
        assert counts == [1, 1, 0]
        assert count == 2
        assert total == pytest.approx(0.55)
        assert histogram_state(registry.snapshot(), "absent") is None

    def test_quantile_from_counts_interpolates(self):
        # 10 observations in [0, 0.1], 10 in (0.1, 1.0]
        value = quantile_from_counts((0.1, 1.0), [10, 10, 0], 0.5)
        assert value == pytest.approx(0.1)
        assert quantile_from_counts((0.1, 1.0), [0, 0, 0], 0.5) != \
            quantile_from_counts((0.1, 1.0), [0, 0, 0], 0.5)  # NaN


class TestRecorderQueries:
    def test_counter_rate_from_window_edges(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        counter = registry.counter("q_total", "")
        for _ in range(5):
            counter.inc(10)
            clock.advance(1.0)
            recorder.sample()
        assert recorder.counter_delta("q_total", 10.0) == pytest.approx(40)
        assert recorder.counter_rate("q_total", 10.0) == pytest.approx(10.0)

    def test_window_excludes_old_samples(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        counter = registry.counter("q_total", "")
        counter.inc(100)
        recorder.sample()
        clock.advance(100.0)
        recorder.sample()
        clock.advance(1.0)
        counter.inc(5)
        recorder.sample()
        # 1-second-old window sees only the last two samples: delta 5.
        assert recorder.counter_delta("q_total", 2.0) == pytest.approx(5)

    def test_counter_reset_clamps_to_late_total(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        counter = registry.counter("q_total", "")
        counter.inc(100)
        recorder.sample()
        clock.advance(1.0)
        counter._value = 3.0  # instance restarted: total went backwards
        recorder.sample()
        assert recorder.counter_delta("q_total", 10.0) == pytest.approx(3)

    def test_insufficient_history_returns_none(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        assert recorder.counter_rate("q_total", 10.0) is None
        registry.counter("q_total", "").inc()
        recorder.sample()
        assert recorder.counter_rate("q_total", 10.0) is None  # one edge only

    def test_gauge_reads_latest(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        gauge = registry.gauge("depth", "")
        gauge.set(7)
        recorder.sample()
        gauge.set(3)
        clock.advance(1.0)
        recorder.sample()
        assert recorder.gauge("depth") == 3
        assert recorder.gauge("absent") is None

    def test_sliding_quantile_ages_out_spike(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock, capacity=600)
        histogram = registry.histogram("t_seconds", "", buckets=[0.1, 1.0, 10.0])
        recorder.sample()
        # A slow spike first...
        for _ in range(10):
            histogram.observe(5.0)
        clock.advance(5.0)
        recorder.sample()
        all_time = recorder.quantile("t_seconds", 0.5, window_seconds=100.0)
        assert all_time > 1.0
        # ...then fast traffic only, inside a fresh window.
        clock.advance(100.0)
        recorder.sample()
        for _ in range(50):
            histogram.observe(0.05)
        clock.advance(1.0)
        recorder.sample()
        windowed = recorder.quantile("t_seconds", 0.5, window_seconds=2.0)
        assert windowed <= 0.1  # the spike aged out of the window

    def test_quantile_none_without_observations_in_window(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        registry.histogram("t_seconds", "", buckets=[0.1])
        recorder.sample()
        clock.advance(1.0)
        recorder.sample()
        assert recorder.quantile("t_seconds", 0.9, 10.0) is None

    def test_series_counter_gives_per_interval_rates(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock)
        counter = registry.counter("q_total", "")
        for increment in (10, 20, 30):
            counter.inc(increment)
            recorder.sample()
            clock.advance(1.0)
        points = recorder.series("q_total", 100.0)
        assert [value for _, value in points] == [pytest.approx(20), pytest.approx(30)]
        gauge = registry.gauge("depth", "")
        gauge.set(2)
        recorder.sample()
        gauge_points = recorder.series("depth", 100.0, kind="gauge")
        assert gauge_points[-1][1] == 2

    def test_ring_capacity_bounds_memory(self, registry):
        clock = FakeClock()
        recorder = make_recorder(registry, clock, capacity=5)
        for _ in range(50):
            clock.advance(1.0)
            recorder.sample()
        assert len(recorder) == 5

    def test_failing_source_is_counted_not_raised(self):
        calls = {"n": 0}

        def source():
            calls["n"] += 1
            raise OSError("endpoint down")

        recorder = TimeSeriesRecorder(source, interval_seconds=1.0)
        recorder.sample()
        recorder.sample()
        assert recorder.n_sample_errors == 2
        assert len(recorder) == 0

    def test_background_thread_samples_and_stops(self, registry):
        registry.counter("q_total", "").inc()
        done = threading.Event()
        recorder = TimeSeriesRecorder(
            registry_source([registry]), interval_seconds=0.01
        )
        original = recorder.sample

        def sampling_hook():
            original()
            if len(recorder) >= 3:
                done.set()

        recorder.sample = sampling_hook
        recorder.start()
        try:
            assert done.wait(timeout=5.0)
        finally:
            recorder.stop()
        assert recorder._thread is None

    def test_start_takes_a_baseline_for_the_first_window(self, registry):
        # Observations made before the first interval ends (a burst of
        # events right after start-up) must show in the windowed quantile
        # read at the first sweep: start() records the empty baseline.
        clock = FakeClock()
        recorder = make_recorder(registry, clock, interval_seconds=60.0)
        histogram = registry.histogram("t_seconds", "", buckets=[0.1, 1.0])
        recorder.start()
        try:
            for _ in range(12):
                histogram.observe(0.5)
            clock.advance(0.5)
            recorder.sample()  # the first sweep
            assert recorder.quantile("t_seconds", 0.5, window_seconds=60.0) == (
                pytest.approx(0.55)
            )
        finally:
            recorder.stop()

    def test_validation(self, registry):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(lambda: {}, interval_seconds=0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(lambda: {}, capacity=1)

"""Unit tests for the streaming (log-bucket) latency histogram."""

import random

import pytest

from repro.analysis.stats import describe, percentile
from repro.core.driver.metrics import LatencyRecorder, StreamingHistogram

#: One bucket spans a 4% ratio, so any in-range estimate is within
#: ~5% relative error of the exact sample percentile.
RESOLUTION = 0.05


class TestStreamingHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)
        with pytest.raises(ValueError):
            StreamingHistogram(buckets=0)
        with pytest.raises(ValueError):
            StreamingHistogram().percentile(101)

    def test_empty(self):
        histogram = StreamingHistogram()
        assert len(histogram) == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0
        assert histogram.describe()["count"] == 0

    def test_count_mean_min_max_exact(self):
        histogram = StreamingHistogram()
        values = [0.004, 0.002, 0.009, 0.0001, 1.7]
        for value in values:
            histogram.add(value)
        summary = histogram.describe()
        assert summary["count"] == len(values)
        assert summary["mean"] == pytest.approx(sum(values) / len(values))
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)

    def test_single_value_percentiles_exact(self):
        histogram = StreamingHistogram()
        histogram.add(0.004)
        for q in (0, 50, 95, 99, 100):
            assert histogram.percentile(q) == 0.004

    def test_percentile_error_bound_vs_exact(self):
        rng = random.Random(11)
        values = [rng.uniform(0.0005, 2.0) for _ in range(5000)]
        histogram = StreamingHistogram()
        for value in values:
            histogram.add(value)
        for q in (50, 90, 95, 99):
            exact = percentile(values, q)
            approx = histogram.percentile(q)
            assert approx == pytest.approx(exact, rel=RESOLUTION), q

    def test_lognormal_percentile_error_bound(self):
        rng = random.Random(13)
        values = [rng.lognormvariate(-5.0, 1.0) for _ in range(5000)]
        histogram = StreamingHistogram()
        for value in values:
            histogram.add(value)
        for q in (50, 95, 99):
            exact = percentile(values, q)
            assert histogram.percentile(q) == pytest.approx(
                exact, rel=RESOLUTION), q

    def test_out_of_range_values_clamp(self):
        histogram = StreamingHistogram(min_value=1e-3, buckets=10)
        histogram.add(1e-9)     # below the first bucket
        histogram.add(5.0)      # beyond the last bucket
        histogram.add(-1.0)     # negative clamps to zero
        assert histogram.count == 3
        assert histogram.min == 0.0
        assert histogram.max == 5.0
        # Estimates stay inside the observed range.
        assert 0.0 <= histogram.percentile(50) <= 5.0

    def test_memory_is_constant(self):
        histogram = StreamingHistogram()
        buckets_before = len(histogram._counts)
        for index in range(100_000):
            histogram.add((index % 997) * 1e-5)
        assert len(histogram._counts) == buckets_before
        assert histogram.count == 100_000

    def test_merge(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        for value in (0.001, 0.002, 0.003):
            a.add(value)
        for value in (0.1, 0.2):
            b.add(value)
        a.merge(b)
        assert a.count == 5
        assert a.max == 0.2
        assert a.sum == pytest.approx(0.306)

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            StreamingHistogram().merge(StreamingHistogram(growth=1.1))


class TestRecorderModes:
    def fill(self, recorder):
        recorder.enabled = True
        rng = random.Random(3)
        for _ in range(500):
            recorder.record("checkout", "ok", rng.uniform(0.001, 0.1))

    def test_streaming_mode_keeps_no_raw_samples(self):
        recorder = LatencyRecorder()
        self.fill(recorder)
        assert recorder.latencies == {}
        assert recorder.count("checkout") == 500

    def test_raw_mode_matches_exact_describe(self):
        recorder = LatencyRecorder(raw_samples=True)
        self.fill(recorder)
        samples = recorder.latencies["checkout"]
        assert recorder.describe_latency("checkout") == describe(samples)

    def test_streaming_close_to_raw(self):
        streaming = LatencyRecorder()
        raw = LatencyRecorder(raw_samples=True)
        self.fill(streaming)
        self.fill(raw)
        approx = streaming.describe_latency("checkout")
        exact = raw.describe_latency("checkout")
        assert approx["count"] == exact["count"]
        assert approx["mean"] == pytest.approx(exact["mean"])
        for q in ("p50", "p95", "p99"):
            assert approx[q] == pytest.approx(exact[q], rel=RESOLUTION)

    def test_timeline_buckets_ok_completions_by_second(self):
        recorder = LatencyRecorder()
        recorder.enabled = True
        recorder.record("checkout", "ok", 0.01, at=0.5)
        recorder.record("checkout", "ok", 0.01, at=0.9)
        recorder.record("checkout", "ok", 0.01, at=2.1)
        recorder.record("checkout", "failed", 0.01, at=2.2)  # not ok
        recorder.record("checkout", "ok", 0.01)              # no time
        assert recorder.timeline == {0: 2, 2: 1}

    def test_queue_delay_and_response_channels(self):
        recorder = LatencyRecorder()
        recorder.enabled = True
        recorder.record_queue_delay("checkout", 0.05)
        assert recorder.queue_delays["checkout"].count == 1
        # Disabled recorders drop everything.
        cold = LatencyRecorder()
        cold.record_queue_delay("checkout", 0.05)
        assert cold.queue_delays == {}

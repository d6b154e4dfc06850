"""Unit tests for statistics helpers, metrics and anomaly reporting."""

import pytest

from repro.analysis import AnomalyReport, describe, mean, percentile
from repro.core.driver.metrics import LatencyRecorder, RunMetrics


class TestStats:
    def test_mean_empty(self):
        assert mean([]) == 0.0

    def test_mean_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_percentile_empty(self):
        assert percentile([], 50) == 0.0

    def test_percentile_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_percentile_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_percentile_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        values = [0.3, 1.7, 2.2, 9.9, 4.4, 0.01, 7.5]
        for q in (10, 25, 50, 75, 90, 99):
            assert percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q)))

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_describe_shape(self):
        summary = describe([2.0, 1.0, 3.0])
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0

    def test_describe_empty(self):
        summary = describe([])
        assert summary["count"] == 0
        assert summary["p99"] == 0.0


class TestLatencyRecorder:
    def test_disabled_by_default(self):
        recorder = LatencyRecorder()
        recorder.record("checkout", "ok", 0.1)
        assert recorder.operations() == []

    def test_records_when_enabled(self):
        recorder = LatencyRecorder()
        recorder.enabled = True
        recorder.record("checkout", "ok", 0.1)
        recorder.record("checkout", "failed", 0.2)
        recorder.record("dashboard", "ok", 0.05)
        assert recorder.count("checkout") == 2
        assert recorder.count("checkout", "ok") == 1
        assert recorder.operations() == ["checkout", "dashboard"]

    def test_run_metrics_from_recorder(self):
        recorder = LatencyRecorder()
        recorder.enabled = True
        for latency in (0.01, 0.02, 0.03):
            recorder.record("checkout", "ok", latency)
        recorder.record("checkout", "rejected", 0.001)
        recorder.record("checkout", "aborted", 0.5)
        metrics = RunMetrics.from_recorder("test-app", 4, 2.0, recorder)
        op = metrics.ops["checkout"]
        assert op.ok == 3
        assert op.rejected == 1
        assert op.failed == 1  # aborted folds into failed
        assert op.throughput == pytest.approx(1.5)
        assert metrics.total_throughput == pytest.approx(1.5)

    def test_latency_of_missing_op(self):
        metrics = RunMetrics("app", 1, 1.0, ops={})
        assert metrics.latency_of("nope") == 0.0

    def test_summary_rows(self):
        recorder = LatencyRecorder()
        recorder.enabled = True
        recorder.record("checkout", "ok", 0.004)
        metrics = RunMetrics.from_recorder("app", 2, 1.0, recorder)
        rows = metrics.summary_rows()
        assert rows[0]["operation"] == "checkout"
        assert rows[0]["p50_ms"] == 4.0


class TestAnomalyReport:
    def test_per_10k_scaling(self):
        report = AnomalyReport("app", transactions=20_000,
                               violations={"C1": 4, "C5": 6})
        assert report.total_violations == 10
        assert report.per_10k() == pytest.approx(5.0)
        assert report.per_10k("C1") == pytest.approx(2.0)

    def test_zero_transactions(self):
        report = AnomalyReport("app", transactions=0,
                               violations={"C1": 3})
        assert report.per_10k() == 0.0

    def test_row_format(self):
        report = AnomalyReport("app", transactions=100,
                               violations={"C1": 1})
        row = report.row()
        assert row["app"] == "app"
        assert row["C1"] == 1
        assert row["total_per_10k"] == 100.0

    def test_from_report(self):
        from repro.core.criteria import CriteriaReport, CriterionResult
        recorder = LatencyRecorder()
        recorder.enabled = True
        recorder.record("checkout", "ok", 0.1)
        metrics = RunMetrics.from_recorder("app", 1, 1.0, recorder)
        criteria = CriteriaReport("app", {
            "C1-atomicity": CriterionResult("C1-atomicity", 10, 2)})
        report = AnomalyReport.from_report(criteria, metrics)
        assert report.transactions == 1
        assert report.violations["C1-atomicity"] == 2


class TestCriteriaReport:
    def test_row_marks_failures(self):
        from repro.core.criteria import CriteriaReport, CriterionResult
        report = CriteriaReport("app", {
            "C1-atomicity": CriterionResult("C1-atomicity", 5, 0),
            "C3-integrity": CriterionResult("C3-integrity", 5, 2),
        })
        row = report.row()
        assert row["C1-atomicity"] == "pass"
        assert row["C3-integrity"] == "FAIL(2)"
        assert row["C2-causal-replication"] == "pass"  # absent = pass
        assert not report.all_pass

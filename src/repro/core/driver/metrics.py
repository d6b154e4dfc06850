"""Latency/throughput collection for benchmark runs.

Latencies are accumulated in :class:`StreamingHistogram` instances —
fixed-bucket, log-scale, O(1) memory per operation — instead of raw
Python lists, so the recorder never becomes the bottleneck of a long
or high-rate (open-loop) run.  Count, mean, min and max are exact;
percentiles are approximate within one bucket's relative width (the
default geometric growth of 4% bounds the error at about ±2%).

For tests that assert exact interpolated percentiles the recorder can
be constructed with ``raw_samples=True``, which additionally keeps the
raw sample lists and computes percentiles from them.
"""

from __future__ import annotations

import dataclasses
import math

from repro.analysis.stats import describe


class StreamingHistogram:
    """Fixed-bucket log-scale histogram of non-negative samples.

    Bucket ``i`` covers ``[min_value * growth**i, min_value *
    growth**(i+1))``; values below ``min_value`` land in bucket 0 and
    values beyond the last bucket clamp into it.  Percentile estimates
    return the geometric midpoint of the selected bucket, clamped to
    the exact observed ``[min, max]`` range, so single-valued samples
    report exactly that value.
    """

    def __init__(self, min_value: float = 1e-6, growth: float = 1.04,
                 buckets: int = 600) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be > 0")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts = [0] * buckets
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __len__(self) -> int:
        return self.count

    def _index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        index = int(math.log(value / self.min_value) / self._log_growth)
        return min(index, len(self._counts) - 1)

    def add(self, value: float) -> None:
        """Record one sample (negative values are clamped to zero)."""
        value = max(0.0, value)
        self._counts[self._index(value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` (same bucket geometry) into this histogram."""
        if (other.min_value != self.min_value
                or other.growth != self.growth
                or len(other._counts) != len(self._counts)):
            raise ValueError("histogram geometries differ")
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _bucket_value(self, index: int) -> float:
        lower = self.min_value * self.growth ** index
        return lower * math.sqrt(self.growth)  # geometric midpoint

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0..100)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = math.ceil(q / 100 * self.count)
        target = max(1, min(target, self.count))
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= target:
                return min(max(self._bucket_value(index), self.min),
                           self.max)
        return self.max  # pragma: no cover - cumulative covers count

    def describe(self) -> dict[str, float]:
        """count/mean/p50/p95/p99/min/max, shaped like ``stats.describe``."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.min,
            "max": self.max,
        }


class LatencyRecorder:
    """Collects per-operation latencies and outcomes inside the
    measurement window (warm-up samples are discarded).

    Besides service latency the recorder keeps one optional channel
    used by the open-loop driver: per-operation *queueing delay* (time
    an arrival waited for a dispatch slot).  It also accumulates a
    per-second timeline of successful completions so the analysis
    layer can show saturation knees.
    """

    def __init__(self, raw_samples: bool = False) -> None:
        self.raw_samples = raw_samples
        self.histograms: dict[str, StreamingHistogram] = {}
        self.queue_delays: dict[str, StreamingHistogram] = {}
        self.latencies: dict[str, list[float]] = {}
        self.outcomes: dict[str, dict[str, int]] = {}
        #: Timeline buckets are whole seconds *since this origin* (the
        #: driver sets it to the measurement start so edge buckets are
        #: not partial seconds): second -> successful completions.
        self.timeline_origin = 0.0
        self.timeline: dict[int, int] = {}
        #: second -> failed/aborted completions; together with
        #: ``timeline`` this is the per-second availability series the
        #: fault scenarios report on.
        self.error_timeline: dict[int, int] = {}
        self.enabled = False

    def _histogram(self, table: dict[str, StreamingHistogram],
                   operation: str) -> StreamingHistogram:
        histogram = table.get(operation)
        if histogram is None:
            histogram = table[operation] = StreamingHistogram()
        return histogram

    def record(self, operation: str, status: str, latency: float,
               at: float | None = None) -> None:
        if not self.enabled:
            return
        self._histogram(self.histograms, operation).add(latency)
        if self.raw_samples:
            self.latencies.setdefault(operation, []).append(latency)
        per_status = self.outcomes.setdefault(operation, {})
        per_status[status] = per_status.get(status, 0) + 1
        if at is not None:
            second = int(at - self.timeline_origin)
            if status == "ok":
                self.timeline[second] = self.timeline.get(second, 0) + 1
            elif status in ("failed", "aborted"):
                self.error_timeline[second] = \
                    self.error_timeline.get(second, 0) + 1

    def record_queue_delay(self, operation: str, delay: float) -> None:
        if not self.enabled:
            return
        self._histogram(self.queue_delays, operation).add(delay)

    def count(self, operation: str, status: str | None = None) -> int:
        per_status = self.outcomes.get(operation, {})
        if status is None:
            return sum(per_status.values())
        return per_status.get(status, 0)

    def operations(self) -> list[str]:
        return sorted(self.outcomes)

    def describe_latency(self, operation: str) -> dict[str, float]:
        """Latency summary; exact when raw samples are kept."""
        if self.raw_samples:
            return describe(self.latencies.get(operation, []))
        histogram = self.histograms.get(operation)
        if histogram is None:
            return StreamingHistogram().describe()
        return histogram.describe()


@dataclasses.dataclass
class OpStats:
    """Summary statistics for one operation type."""

    operation: str
    count: int
    ok: int
    rejected: int
    failed: int
    throughput: float
    latency: dict[str, float]
    #: Open-loop only: time arrivals waited for a dispatch slot.
    queue_delay: dict[str, float] | None = None

    def queue_columns(self) -> dict[str, float]:
        """Rounded queue-delay table cells (0.0 when none recorded)."""
        queue = self.queue_delay or {}
        return {"queue_p50_ms": round(queue.get("p50", 0.0) * 1000, 3),
                "queue_p99_ms": round(queue.get("p99", 0.0) * 1000, 3)}


@dataclasses.dataclass
class RunMetrics:
    """The full result of one benchmark run."""

    app: str
    workers: int
    duration: float
    ops: dict[str, OpStats]
    runtime: dict = dataclasses.field(default_factory=dict)
    #: Per-second successful completions: sorted (second, count) pairs.
    timeline: list[tuple[int, int]] = dataclasses.field(
        default_factory=list)
    #: Per-second failed/aborted completions: sorted (second, count)
    #: pairs (the error-rate series of the availability report).
    error_timeline: list[tuple[int, int]] = dataclasses.field(
        default_factory=list)
    #: Open-loop counters (arrivals, shed, max in-flight, ...); empty
    #: for closed-loop runs.
    open_loop: dict = dataclasses.field(default_factory=dict)

    @property
    def total_throughput(self) -> float:
        """Successful business transactions per simulated second."""
        return sum(op.ok for op in self.ops.values()) / self.duration

    def latency_of(self, operation: str, which: str = "p50") -> float:
        op = self.ops.get(operation)
        return op.latency.get(which, 0.0) if op else 0.0

    def queue_delay_of(self, operation: str,
                       which: str = "p50") -> float:
        op = self.ops.get(operation)
        if op is None or op.queue_delay is None:
            return 0.0
        return op.queue_delay.get(which, 0.0)

    @classmethod
    def from_recorder(cls, app: str, workers: int, duration: float,
                      recorder: LatencyRecorder,
                      runtime: dict | None = None,
                      open_loop: dict | None = None) -> "RunMetrics":
        ops = {}
        for operation in recorder.operations():
            queue = recorder.queue_delays.get(operation)
            ops[operation] = OpStats(
                operation=operation,
                count=recorder.count(operation),
                ok=recorder.count(operation, "ok"),
                rejected=recorder.count(operation, "rejected"),
                failed=(recorder.count(operation, "failed")
                        + recorder.count(operation, "aborted")),
                throughput=recorder.count(operation, "ok") / duration,
                latency=recorder.describe_latency(operation),
                queue_delay=queue.describe() if queue else None)
        return cls(app=app, workers=workers, duration=duration, ops=ops,
                   runtime=runtime or {},
                   timeline=sorted(recorder.timeline.items()),
                   error_timeline=sorted(recorder.error_timeline.items()),
                   open_loop=open_loop or {})

    @property
    def has_queue_delays(self) -> bool:
        return any(op.queue_delay is not None
                   for op in self.ops.values())

    def summary_rows(self) -> list[dict]:
        """Rows suitable for printing as a results table.

        When any operation carries queueing data the queue columns
        appear on *every* row (0.0 where absent), so column-inferring
        renderers that look only at the first row keep them.
        """
        with_queue = self.has_queue_delays
        rows = []
        for operation, op in sorted(self.ops.items()):
            row = {
                "app": self.app, "operation": operation,
                "ok": op.ok, "rejected": op.rejected,
                "failed": op.failed,
                "tps": round(op.throughput, 1),
                "p50_ms": round(op.latency["p50"] * 1000, 3),
                "p95_ms": round(op.latency["p95"] * 1000, 3),
                "p99_ms": round(op.latency["p99"] * 1000, 3),
            }
            if with_queue:
                row.update(op.queue_columns())
            rows.append(row)
        return rows

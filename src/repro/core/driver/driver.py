"""The closed-loop benchmark driver: data generation, ingestion,
warm-up, workload submission, statistics collection and cleanup.

The driver mirrors the lifecycle the paper describes for its .NET
driver.  Workers are closed-loop: each submits one business transaction,
waits for the result, records it, then picks the next transaction by
the configured mix.  The transactions themselves are issued through the
shared :class:`~repro.core.driver.issuer.TransactionIssuer`, the code
path it has in common with the open-loop driver.
"""

from __future__ import annotations

import dataclasses

from repro.core.driver.issuer import Driver, check_timing
from repro.core.driver.metrics import RunMetrics


@dataclasses.dataclass(frozen=True)
class DriverConfig:
    """Experiment-control parameters."""

    workers: int = 32
    #: Simulated seconds of warm-up (not measured).
    warmup: float = 1.0
    #: Simulated seconds of the measured window.
    duration: float = 5.0
    #: Extra simulated seconds to let asynchronous effects quiesce
    #: before auditing.
    drain: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        check_timing(self)


class BenchmarkDriver(Driver):
    """Drives one app through one closed-loop experiment."""

    config: DriverConfig

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Execute the full experiment lifecycle; returns the metrics.

        Ingestion -> warm-up -> measured window -> drain (quiesce).
        The simulation environment is run *by this call*.
        """
        self._ingest_once()
        measure_start = self.env.now + self.config.warmup
        self._deadline = measure_start + self.config.duration
        self.issuer.record_until = self._deadline
        self.recorder.timeline_origin = measure_start
        for index in range(self.config.workers):
            self.env.process(self._worker(index), name=f"worker-{index}")
        self.env.process(self._metrics_gate(), name="gate")
        self.env.run(until=self._deadline + self.config.drain)
        return RunMetrics.from_recorder(
            self.app.name, self.config.workers, self.config.duration,
            self.recorder, runtime=self.app.runtime_stats())

    def _metrics_gate(self):
        if self.config.warmup > 0:
            yield self.env.timeout(self.config.warmup)
        self.recorder.enabled = True

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker(self, index: int):
        while self.env.now < self._deadline:
            operation = self.issuer.choose_operation()
            yield from self.issuer.issue(operation)

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
import typing

from repro.core.driver.issuer import IssuerStateView, TransactionIssuer
from repro.core.driver.metrics import LatencyRecorder, RunMetrics
from repro.core.workload.config import WorkloadConfig
from repro.core.workload.dataset import Dataset

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.runtime import Environment


@dataclasses.dataclass
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
        if self.warmup < 0 or self.duration <= 0 or self.drain < 0:
            raise ValueError("invalid timing parameters")


class BenchmarkDriver(IssuerStateView):
    """Drives one app through one closed-loop experiment."""

    def __init__(self, env: "Environment", app: "MarketplaceApp",
                 workload: WorkloadConfig | None = None,
                 config: DriverConfig | None = None,
                 dataset: Dataset | None = None,
                 data_seed: int = 0) -> None:
        self.env = env
        self.app = app
        self.workload = workload or WorkloadConfig()
        self.config = config or DriverConfig()
        self.dataset = dataset or Dataset(self.workload, seed=data_seed)
        self.recorder = LatencyRecorder()
        self.issuer = TransactionIssuer(env, app, self.workload,
                                        self.dataset, self.recorder)
        self._deadline = 0.0
        self._ingested = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Execute the full experiment lifecycle; returns the metrics.

        Ingestion -> warm-up -> measured window -> drain (quiesce).
        The simulation environment is run *by this call*.
        """
        if not self._ingested:
            self.app.ingest(self.dataset)
            self._ingested = True
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

"""Benchmark core: workload definition, drivers and criteria.

This package is the paper's primary contribution: the Online Marketplace
workload (data generation, key distributions, transaction mix), the
benchmark drivers (closed-loop and open-loop/rate-controlled), the
named scenario suite and the data management criteria auditors.
"""

from repro.core.criteria import CriteriaReport, audit_app
from repro.core.driver.arrivals import (
    ArrivalProcess,
    ConstantRate,
    PhasedArrivals,
    PoissonArrivals,
    RampArrivals,
    SinusoidArrivals,
)
from repro.core.driver.driver import BenchmarkDriver, DriverConfig
from repro.core.driver.issuer import TransactionIssuer
from repro.core.driver.metrics import (
    LatencyRecorder,
    RunMetrics,
    StreamingHistogram,
)
from repro.core.matrix import (
    CellResult,
    MatrixCell,
    MatrixProgress,
    MatrixResult,
    MatrixSpec,
    run_cell,
    run_matrix,
)
from repro.core.driver.open_loop import (
    HotspotSpec,
    OpenLoopConfig,
    OpenLoopDriver,
)
from repro.core.scenarios import SCENARIOS, Scenario, get_scenario
from repro.core.workload.config import TransactionMix, WorkloadConfig
from repro.core.workload.dataset import Dataset

__all__ = [
    "ArrivalProcess",
    "BenchmarkDriver",
    "CellResult",
    "ConstantRate",
    "CriteriaReport",
    "Dataset",
    "DriverConfig",
    "HotspotSpec",
    "LatencyRecorder",
    "MatrixCell",
    "MatrixProgress",
    "MatrixResult",
    "MatrixSpec",
    "OpenLoopConfig",
    "OpenLoopDriver",
    "PhasedArrivals",
    "PoissonArrivals",
    "RampArrivals",
    "RunMetrics",
    "SCENARIOS",
    "Scenario",
    "SinusoidArrivals",
    "StreamingHistogram",
    "TransactionIssuer",
    "TransactionMix",
    "WorkloadConfig",
    "audit_app",
    "get_scenario",
    "run_cell",
    "run_matrix",
]

"""Shared harness for the experiment benchmarks.

Every benchmark regenerates one table/figure of the paper's evaluation:
it runs the four implementations under the prescribed workload on the
simulated substrate and prints the rows/series the paper reports
(throughput ranking, latency percentiles, criteria matrix, anomaly
counts, ...).  Absolute numbers are simulated-time values; the *shape*
(who wins, by what factor, where crossovers fall) is the reproduction
target.
"""

from __future__ import annotations

import os

from repro.analysis.anomalies import AnomalyReport
from repro.apps import ALL_APPS, AppConfig
from repro.core import (
    BenchmarkDriver,
    DriverConfig,
    WorkloadConfig,
    audit_app,
)
from repro.runtime import Environment

APP_ORDER = ("orleans-eventual", "orleans-transactions", "statefun",
             "customized-orleans")

DEFAULT_WORKLOAD = dict(sellers=6, customers=48, products_per_seller=6)

#: Quick mode (REPRO_BENCH_QUICK=1): shrink measured windows so the CI
#: smoke job finishes in minutes.  Numbers lose precision but every
#: bench still exercises its full code path and emits its table.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: Window multiplier applied by run_experiment in quick mode.
QUICK_DURATION_SCALE = 0.4


def quick_scaled(duration: float) -> float:
    """Scale a measured window for quick mode (min 0.2 sim-seconds)."""
    if not QUICK:
        return duration
    return max(0.2, duration * QUICK_DURATION_SCALE)


def run_experiment(app_name: str,
                   workers: int = 32,
                   duration: float = 1.5,
                   warmup: float = 0.3,
                   drain: float = 1.0,
                   seed: int = 1,
                   silos: int = 2,
                   cores_per_silo: int = 2,
                   workload_kwargs: dict | None = None,
                   app_kwargs: dict | None = None):
    """Run one (app, configuration) cell; returns (metrics, report, app)."""
    env = Environment(seed=seed)
    config = AppConfig(silos=silos, cores_per_silo=cores_per_silo,
                       **(app_kwargs or {}))
    app = ALL_APPS[app_name](env, config)
    workload = WorkloadConfig(**{**DEFAULT_WORKLOAD,
                                 **(workload_kwargs or {})})
    driver = BenchmarkDriver(env, app, workload,
                             DriverConfig(workers=workers, warmup=warmup,
                                          duration=quick_scaled(duration),
                                          drain=drain))
    metrics = driver.run()
    report = audit_app(app, driver)
    return metrics, report, app


def print_table(title: str, rows: list[dict]) -> None:
    """Print rows as an aligned text table (the bench's 'figure')."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {col: max(len(str(col)),
                       *(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(col, "")).ljust(widths[col])
                        for col in columns))


def anomaly_row(metrics, report) -> dict:
    return AnomalyReport.from_report(report, metrics).row()

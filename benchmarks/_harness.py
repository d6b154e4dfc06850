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

import dataclasses
import os

from repro.analysis.anomalies import AnomalyReport
from repro.core import Scenario, WorkloadConfig

APP_ORDER = ("orleans-eventual", "orleans-transactions", "statefun",
             "customized-orleans")

#: Quick mode (REPRO_BENCH_QUICK=1): shrink measured windows so the CI
#: smoke job finishes in minutes.  Numbers lose precision but every
#: bench still exercises its full code path and emits its table.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: Window multiplier applied by closed_loop in quick mode.
QUICK_DURATION_SCALE = 0.4


def quick_scaled(duration: float) -> float:
    """Scale a measured window for quick mode (min 0.2 sim-seconds)."""
    if not QUICK:
        return duration
    return max(0.2, duration * QUICK_DURATION_SCALE)


#: The closed loop the benches run through ``run_scenario``.
CLOSED_LOOP = Scenario(
    name="bench-closed-loop",
    description="Closed-loop workers on a small marketplace and a "
                "two-silo, two-core cluster.",
    workload=WorkloadConfig(sellers=6, customers=48,
                            products_per_seller=6),
    population=32, warmup=0.3, duration=1.5, drain=1.0,
    cluster_silos=2, cluster_cores=2)


def closed_loop(workers: int, duration: float, **workload) -> Scenario:
    """:data:`CLOSED_LOOP` with ``workers`` workers, a ``duration``
    window (shrunk in quick mode) and ``workload`` field changes."""
    return dataclasses.replace(
        CLOSED_LOOP, population=workers, duration=quick_scaled(duration),
        workload=dataclasses.replace(CLOSED_LOOP.workload, **workload))


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

"""Hunt anomalies: what does eventual consistency actually cost?

Runs the eventually-consistent implementation under increasing message
loss and prints how each data-management criterion degrades, then runs
the customized stack under the same conditions to show it staying
anomaly-free.  This is the benchmark's core argument made concrete: the
throughput champion silently drops payments' side effects, ships stale
prices into carts, and reorders lifecycle events.

Run with:  python examples/consistency_audit.py
"""

from repro.apps import ALL_APPS, AppConfig
from repro.core import (
    BenchmarkDriver,
    DriverConfig,
    WorkloadConfig,
    audit_app,
)
from repro.runtime import Environment

DROP_RATES = (0.0, 0.01, 0.05)


def run_cell(app_name: str, drop: float):
    env = Environment(seed=19)
    app = ALL_APPS[app_name](env, AppConfig(
        silos=2, cores_per_silo=4, drop_probability=drop))
    driver = BenchmarkDriver(
        env, app,
        WorkloadConfig(sellers=6, customers=48, products_per_seller=6),
        DriverConfig(workers=24, warmup=0.3, duration=1.5, drain=1.5))
    metrics = driver.run()
    return metrics, audit_app(app, driver)


def main() -> None:
    for app_name in ("orleans-eventual", "customized-orleans"):
        print(f"\n### {app_name} ###")
        print(f"{'drop rate':>10s} {'tx/s':>9s} "
              f"{'C1 atomicity':>13s} {'C2 replication':>15s} "
              f"{'C3 integrity':>13s} {'C4 dashboard':>13s} "
              f"{'C5 ordering':>12s}")
        for drop in DROP_RATES:
            metrics, report = run_cell(app_name, drop)
            def cell(criterion):
                result = report.results[criterion]
                return (f"{result.violations}/{result.checked}"
                        if not result.passed else "clean")
            print(f"{drop:10.0%} {metrics.total_throughput:9,.0f} "
                  f"{cell('C1-atomicity'):>13s} "
                  f"{cell('C2-causal-replication'):>15s} "
                  f"{cell('C3-integrity'):>13s} "
                  f"{cell('C4-snapshot-dashboard'):>13s} "
                  f"{cell('C5-event-ordering'):>12s}")

    print("""
Reading the table:
 * C1: paid orders without shipments, dangling stock reservations and
   wrong customer spend — lost fire-and-forget messages never recover.
 * C2: carts captured prices older than updates the seller had already
   been acknowledged for (read-your-writes violations).
 * C4: the two dashboard queries disagreed about the same seller.
 * C5: a subscriber observed a shipment event before the payment event
   of the same order.
The customized stack (transactions + causal KV replication + one-step
SQL dashboard + causal topics) stays clean at every drop rate —
dropped calls abort cleanly instead of half-applying.""")


if __name__ == "__main__":
    main()

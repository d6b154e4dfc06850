"""Quickstart: run one Online Marketplace benchmark end to end.

Spins up the eventually-consistent implementation on a simulated
4-silo cluster, drives it with the default transaction mix for a few
simulated seconds, then prints the throughput/latency table and the
data-management criteria audit.

Run with:  python examples/quickstart.py
"""

from repro.control import run_scenario
from repro.core import Scenario, WorkloadConfig


def main() -> None:
    # 1. The experiment: 32 closed-loop workers, each submitting one of
    #    the five business transactions, waiting, and repeating, on a
    #    marketplace of 10 sellers, 100 customers and 100 products.
    scenario = Scenario(
        name="quickstart", description="closed loop of 32 workers",
        workload=WorkloadConfig(sellers=10, customers=100,
                                products_per_seller=10),
        population=32, warmup=0.5, duration=3.0, drain=1.0)

    # 2. One run: a deterministic simulation (same seed, same run) of
    #    Online Marketplace on virtual actors with eventual consistency
    #    on 4 silos of 4 cores.  The driver generates the marketplace,
    #    ingests it, warms up, submits the transactions, collects
    #    statistics, then the criteria are audited.
    run = run_scenario(scenario, "orleans-eventual", seed=42,
                       silos=4, cores=4)
    metrics = run.metrics

    # 3. Results: throughput and latency per business transaction.
    print(f"app: {metrics.app}   workers: {metrics.workers}   "
          f"measured window: {metrics.duration}s (simulated)")
    print(f"total committed throughput: "
          f"{metrics.total_throughput:,.0f} tx/s\n")
    header = (f"{'operation':18s} {'ok':>7s} {'rej':>5s} {'fail':>5s} "
              f"{'tx/s':>9s} {'p50 ms':>8s} {'p99 ms':>8s}")
    print(header)
    print("-" * len(header))
    for name, op in sorted(metrics.ops.items()):
        print(f"{name:18s} {op.ok:7d} {op.rejected:5d} {op.failed:5d} "
              f"{op.throughput:9.1f} {op.latency['p50'] * 1000:8.2f} "
              f"{op.latency['p99'] * 1000:8.2f}")

    # 4. The data management criteria audit — the benchmark's real
    #    point: speed is easy, correctness criteria are not.
    print("\ncriteria audit:")
    for name, result in sorted(run.report.results.items()):
        status = "pass" if result.passed else \
            f"FAIL ({result.violations}/{result.checked})"
        print(f"  {name:28s} {status}")
    print("\n(the eventual implementation is the fastest — and the one "
          "that fails\n replication, dashboard and event-ordering "
          "criteria; see the other\n examples for the transactional and "
          "customized stacks)")


if __name__ == "__main__":
    main()

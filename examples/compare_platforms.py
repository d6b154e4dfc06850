"""Compare the four data platforms on identical workloads.

Reproduces the paper's Section III result interactively: the same
Online Marketplace workload is run against all four implementations,
then the throughput ranking, checkout latency and criteria compliance
are printed side by side.

Run with:  python examples/compare_platforms.py
"""

from repro.apps import ALL_APPS
from repro.control import run_scenario
from repro.core import Scenario, WorkloadConfig
from repro.core.criteria import CRITERIA

SCENARIO = Scenario(
    name="compare", description="closed loop of 32 workers",
    workload=WorkloadConfig(sellers=6, customers=48, products_per_seller=6),
    population=32, warmup=0.3, duration=2.0, drain=1.0)


def main() -> None:
    results = {}
    for name in ALL_APPS:
        run = run_scenario(SCENARIO, name, seed=7, silos=2, cores=4)
        results[name] = run.metrics, run.report

    print(f"{'implementation':24s} {'tx/s':>9s} {'checkout p50':>13s} "
          f"{'criteria':>10s}")
    print("-" * 62)
    txn_tput = results["orleans-transactions"][0].total_throughput
    for name, (metrics, report) in results.items():
        passed = sum(result.passed for result in report.results.values())
        print(f"{name:24s} {metrics.total_throughput:9,.0f} "
              f"{metrics.latency_of('checkout') * 1000:11.2f}ms "
              f"{passed:>6d}/{len(report.results)}")

    statefun_tput = results["statefun"][0].total_throughput
    print(f"\nstatefun / orleans-transactions throughput ratio: "
          f"{statefun_tput / txn_tput:.2f}x  "
          f"(paper: 'outperforms Orleans Transactions by 2 times')")

    print("\ncriteria detail (paper: 'no single data platform supports "
          "all the\ncore data management requirements' — except the "
          "customized stack):\n")
    header = f"{'implementation':24s} " + "  ".join(
        criterion.split('-')[0] for criterion in CRITERIA)
    print(header)
    print("-" * len(header))
    for name, (_, report) in results.items():
        cells = []
        for criterion in CRITERIA:
            result = report.results.get(criterion)
            cells.append("pass" if result is None or result.passed
                         else "FAIL")
        print(f"{name:24s} " + "  ".join(cell.ljust(2) for cell in cells))


if __name__ == "__main__":
    main()

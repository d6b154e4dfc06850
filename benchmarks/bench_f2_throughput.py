"""F2 — throughput of the four implementations vs offered load.

Paper claims (§III): Orleans Eventual "exhibits the highest
throughput"; Statefun "outperforms Orleans Transactions by 2 times";
the customized solution's "performance is comparable to Orleans
transactions".

The bench sweeps the closed-loop worker count and prints one series per
implementation; the final (saturated) column is what the assertions
check.
"""

import pytest

from _harness import APP_ORDER, closed_loop, print_table
from repro.control import run_scenario

WORKER_SWEEP = (8, 32, 96)


def run_sweep():
    series = {name: [] for name in APP_ORDER}
    for name in APP_ORDER:
        for workers in WORKER_SWEEP:
            metrics = run_scenario(closed_loop(workers, 1.5), name,
                                   seed=3).metrics
            series[name].append(metrics.total_throughput)
    return series


@pytest.mark.benchmark(group="f2-throughput")
def test_f2_throughput_ranking(benchmark):
    series = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for name in APP_ORDER:
        row = {"app": name}
        for workers, tput in zip(WORKER_SWEEP, series[name]):
            row[f"{workers}w (tx/s)"] = round(tput, 1)
        rows.append(row)
    print_table("F2: throughput vs closed-loop workers", rows)

    saturated = {name: series[name][-1] for name in APP_ORDER}
    # Ranking: eventual > statefun > transactions.
    assert saturated["orleans-eventual"] > saturated["statefun"]
    assert saturated["statefun"] > saturated["orleans-transactions"]
    # Statefun ≈ 2x Orleans Transactions.
    ratio = saturated["statefun"] / saturated["orleans-transactions"]
    assert 1.3 <= ratio <= 3.5, f"statefun/txn ratio {ratio:.2f}"
    # Customized ≈ Orleans Transactions (low overhead).
    ratio = (saturated["customized-orleans"]
             / saturated["orleans-transactions"])
    assert 0.6 <= ratio <= 1.3, f"customized/txn ratio {ratio:.2f}"
    # Throughput must not *decrease* dramatically with more offered
    # load (closed-loop saturation, not collapse).
    for name in APP_ORDER:
        assert series[name][-1] >= 0.5 * max(series[name])

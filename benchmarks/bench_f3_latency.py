"""F3 — checkout latency percentiles per implementation.

Paper claims (§III): ACID transactions come "at a considerable
overhead" relative to the eventual baseline, while the customized
stack "introduces low overhead" over Orleans Transactions.
"""

import pytest

from _harness import APP_ORDER, closed_loop, print_table
from repro.control import run_scenario


def run_cells():
    cells = {}
    for name in APP_ORDER:
        cells[name] = run_scenario(closed_loop(48, 1.5), name,
                                   seed=9).metrics
    return cells


@pytest.mark.benchmark(group="f3-latency")
def test_f3_checkout_latency(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    rows = []
    for name in APP_ORDER:
        latency = cells[name].ops["checkout"].latency
        rows.append({
            "app": name,
            "p50 (ms)": round(latency["p50"] * 1000, 2),
            "p95 (ms)": round(latency["p95"] * 1000, 2),
            "p99 (ms)": round(latency["p99"] * 1000, 2),
            "mean (ms)": round(latency["mean"] * 1000, 2),
        })
    print_table("F3: checkout latency at 48 workers", rows)

    p50 = {name: cells[name].ops["checkout"].latency["p50"]
           for name in APP_ORDER}
    # Transactions add considerable latency over the eventual baseline.
    assert p50["orleans-transactions"] > 2 * p50["orleans-eventual"]
    # Statefun sits between the two.
    assert p50["orleans-eventual"] < p50["statefun"] \
        < p50["orleans-transactions"]
    # Customized adds low overhead on top of transactions.
    assert p50["customized-orleans"] < 1.6 * p50["orleans-transactions"]
    # Percentiles are internally consistent.
    for name in APP_ORDER:
        latency = cells[name].ops["checkout"].latency
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

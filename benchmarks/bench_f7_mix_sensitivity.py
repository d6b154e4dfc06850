"""F7 — workload-mix and skew sensitivity.

Checks that the headline ranking (eventual > statefun > transactions)
is robust across checkout share and product-popularity skew, and that
contention (higher Zipf skew) hurts the lock-based transactional
implementation the most — its costs come from real lock conflicts.
"""

import pytest

from repro.control import run_scenario
from repro.core.workload.config import TransactionMix

from _harness import closed_loop, print_table

APPS = ("orleans-eventual", "orleans-transactions", "statefun")
ZIPF_SWEEP = (0.0, 0.9)
CHECKOUT_SHARES = (40, 80)


def run_grid():
    grid = {}
    for name in APPS:
        for zipf in ZIPF_SWEEP:
            for share in CHECKOUT_SHARES:
                mix = TransactionMix(
                    checkout=share, price_update=10, product_delete=1,
                    update_delivery=4, dashboard=100 - share - 15)
                run = run_scenario(
                    closed_loop(32, 1.2, zipf_s=zipf, mix=mix), name,
                    seed=41)
                grid[(name, zipf, share)] = (run.metrics, run.app)
    return grid


@pytest.mark.benchmark(group="f7-sensitivity")
def test_f7_mix_and_skew_sensitivity(benchmark):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = []
    for (name, zipf, share), (metrics, _) in sorted(grid.items()):
        rows.append({
            "app": name, "zipf_s": zipf, "checkout%": share,
            "tx/s": round(metrics.total_throughput, 1),
            "checkout p50 (ms)": round(
                metrics.latency_of("checkout") * 1000, 2),
        })
    print_table("F7: throughput across mix and skew", rows)

    # The ranking holds in every cell of the grid.
    for zipf in ZIPF_SWEEP:
        for share in CHECKOUT_SHARES:
            eventual = grid[("orleans-eventual", zipf,
                             share)][0].total_throughput
            statefun = grid[("statefun", zipf, share)][0].total_throughput
            txn = grid[("orleans-transactions", zipf,
                        share)][0].total_throughput
            assert eventual > statefun > txn, (zipf, share)

    # Higher skew costs the lock-based implementation relatively more
    # at a checkout-heavy mix (more wait-die retries on hot products).
    def skew_penalty(name, share=80):
        uniform = grid[(name, 0.0, share)][0].total_throughput
        skewed = grid[(name, 0.9, share)][0].total_throughput
        return skewed / uniform

    assert skew_penalty("orleans-transactions") \
        < skew_penalty("orleans-eventual")

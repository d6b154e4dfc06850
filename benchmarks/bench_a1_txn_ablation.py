"""A1 — ablation: where does the transactional overhead come from?

DESIGN.md attributes Orleans Transactions' "considerable overhead" to
two mechanisms: lock waits/wait-die retries, and 2PC rounds with
durable log forces.  This ablation toggles each off and measures the
recovered throughput, confirming the cost model is mechanical rather
than scripted.
"""

import dataclasses

import pytest

from _harness import closed_loop, print_table
from repro.apps import OrleansTransactionsApp
from repro.control import run_scenario

VARIANTS = ("full", "no-2pc", "no-locks", "neither")


def run_variant(variant: str):
    def app(env, config):
        return OrleansTransactionsApp(env, dataclasses.replace(
            config,
            enable_two_phase_commit=variant not in ("no-2pc", "neither"),
            enable_locking=variant not in ("no-locks", "neither")))
    return run_scenario(closed_loop(32, 1.2), app, seed=43).metrics


def run_all():
    return {variant: run_variant(variant) for variant in VARIANTS}


@pytest.mark.benchmark(group="a1-txn-ablation")
def test_a1_transaction_cost_ablation(benchmark):
    cells = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for variant in VARIANTS:
        metrics = cells[variant]
        rows.append({
            "variant": variant,
            "tx/s": round(metrics.total_throughput, 1),
            "checkout p50 (ms)": round(
                metrics.latency_of("checkout") * 1000, 2),
            "retries": metrics.runtime["transactions"]["retries"],
        })
    print_table("A1: transactional overhead ablation", rows)

    full = cells["full"].total_throughput
    # Removing either cost source recovers throughput...
    assert cells["no-2pc"].total_throughput > full
    assert cells["neither"].total_throughput > full
    # ...and with both removed, latency approaches the raw actor cost.
    assert cells["neither"].latency_of("checkout") \
        < 0.7 * cells["full"].latency_of("checkout")
    # Locking is what produces wait-die retries.
    assert cells["full"].runtime["transactions"]["retries"] \
        >= cells["no-locks"].runtime["transactions"]["retries"]

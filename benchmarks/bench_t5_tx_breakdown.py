"""T5 — per-transaction-type breakdown.

The paper's workload section defines five business transactions; this
table reports throughput and latency per type per implementation —
the detailed view behind the headline throughput ranking.
"""

import pytest

from _harness import APP_ORDER, closed_loop, print_table
from repro.control import run_scenario

OPERATIONS = ("add_item", "checkout", "update_price", "delete_product",
              "update_delivery", "dashboard")


def run_cells():
    cells = {}
    for name in APP_ORDER:
        cells[name] = run_scenario(closed_loop(32, 1.5), name,
                                   seed=23).metrics
    return cells


@pytest.mark.benchmark(group="t5-breakdown")
def test_t5_per_transaction_breakdown(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    rows = []
    for name in APP_ORDER:
        for operation in OPERATIONS:
            op = cells[name].ops.get(operation)
            if op is None:
                continue
            rows.append({
                "app": name, "operation": operation, "ok": op.ok,
                "rejected": op.rejected, "failed": op.failed,
                "p50 (ms)": round(op.latency["p50"] * 1000, 2),
                "p99 (ms)": round(op.latency["p99"] * 1000, 2),
            })
    print_table("T5: per-transaction breakdown at 32 workers", rows)

    for name in APP_ORDER:
        ops = cells[name].ops
        # Every transaction type was exercised and mostly succeeded.
        for operation in ("checkout", "update_price", "dashboard"):
            assert ops[operation].ok > 0, (name, operation)
        # The read-only dashboard is cheaper than checkout everywhere.
        assert ops["dashboard"].latency["p50"] \
            < ops["checkout"].latency["p50"], name
    # The delivery batch is the heaviest transaction on the
    # transactional implementations.
    txn_ops = cells["orleans-transactions"].ops
    assert txn_ops["update_delivery"].latency["p50"] \
        > txn_ops["update_price"].latency["p50"]

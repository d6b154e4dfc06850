"""A3 — ablation: replication lag vs staleness and causal-wait cost.

The customized stack's causal KV replication blocks reads until the
chosen replica has caught up with the session frontier.  Sweeping the
replication lag under a price-update-heavy mix shows (a) the eventual
implementation's staleness growing with lag while (b) the customized
implementation stays anomaly-free, paying instead with bounded causal
waits.
"""

import pytest

from repro.core.workload.config import TransactionMix
from repro.costs import CostModel

from _harness import print_table, run_experiment

LAGS = (0.0005, 0.005, 0.02)
MIX = TransactionMix(checkout=55, price_update=35, product_delete=0,
                     update_delivery=0, dashboard=10)


def run_sweep():
    cells = {}
    for lag in LAGS:
        for name in ("orleans-eventual", "customized-orleans"):
            metrics, report, app = run_experiment(
                name, workers=24, duration=1.2, seed=53,
                workload_kwargs={"mix": MIX},
                app_kwargs={"costs": CostModel(replication_lag=lag)})
            stale = report.results["C2-causal-replication"].violations
            checked = report.results["C2-causal-replication"].checked
            waits = app.runtime_stats().get("kv_causal_waits", 0)
            cells[(name, lag)] = (metrics, stale, checked, waits)
    return cells


@pytest.mark.benchmark(group="a3-replication")
def test_a3_replication_lag_vs_staleness(benchmark):
    cells = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for (name, lag), (metrics, stale, checked, waits) in sorted(
            cells.items()):
        rows.append({
            "app": name, "lag (ms)": lag * 1000,
            "stale adds": stale, "adds checked": checked,
            "causal waits": waits,
            "tx/s": round(metrics.total_throughput, 1),
        })
    print_table("A3: replication lag vs staleness", rows)

    # The causal stack never returns stale data, at any lag.
    for lag in LAGS:
        assert cells[("customized-orleans", lag)][1] == 0, lag
    # The eventual stack gets worse as lag grows.
    eventual_by_lag = [cells[("orleans-eventual", lag)][1]
                       for lag in LAGS]
    assert eventual_by_lag[-1] > eventual_by_lag[0]
    assert eventual_by_lag[0] >= 0
    # Causal reads pay with waits when lag is large.
    assert cells[("customized-orleans", LAGS[-1])][3] \
        >= cells[("customized-orleans", LAGS[0])][3]

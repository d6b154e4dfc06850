"""F6 — anomaly counts per implementation under message loss.

The flip side of the throughput ranking: the eventual implementation's
speed is paid for in anomalies.  Under an identical workload with 2%
message loss, this bench counts criteria violations per 10k submitted
transactions for each implementation.
"""

import pytest

from _harness import APP_ORDER, anomaly_row, closed_loop, print_table
from repro.control import run_scenario


def run_cells():
    cells = {}
    for name in APP_ORDER:
        run = run_scenario(closed_loop(24, 1.5), name, seed=31,
                           drop_probability=0.02)
        cells[name] = (run.metrics, run.report)
    return cells


@pytest.mark.benchmark(group="f6-anomalies")
def test_f6_anomalies_under_message_loss(benchmark):
    cells = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    rows = [anomaly_row(metrics, report)
            for metrics, report in cells.values()]
    print_table("F6: criteria violations under 2% message loss", rows)

    def violations(name, criterion):
        return cells[name][1].results[criterion].violations

    # Eventual: atomicity, replication, dashboard and ordering anomalies.
    assert violations("orleans-eventual", "C1-atomicity") > 0
    assert violations("orleans-eventual", "C5-event-ordering") > 0
    # ACID keeps atomicity and integrity even under loss.
    for name in ("orleans-transactions", "customized-orleans"):
        assert violations(name, "C1-atomicity") == 0, name
        assert violations(name, "C3-integrity") == 0, name
    # Exactly-once dataflow also keeps atomicity (guaranteed delivery).
    assert violations("statefun", "C1-atomicity") == 0
    # The customized stack is anomaly-free across the board.
    assert cells["customized-orleans"][1].all_pass
    # Anomaly ordering: eventual accumulates the most violations.
    totals = {name: sum(r.violations
                        for r in cells[name][1].results.values())
              for name in APP_ORDER}
    assert totals["orleans-eventual"] == max(totals.values())

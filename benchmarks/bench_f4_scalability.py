"""F4 — scalability: throughput vs cluster size.

Paper claim (§III): Statefun "shows lower scalability compared to
Orleans Eventual".  The bench sweeps silo/partition count at a
load that saturates the smallest deployment and compares speedups.
"""

import pytest

from _harness import closed_loop, print_table
from repro.control import run_scenario

SILO_SWEEP = (1, 2, 4)
APPS = ("orleans-eventual", "statefun")


def run_sweep():
    series = {name: [] for name in APPS}
    for name in APPS:
        for silos in SILO_SWEEP:
            run = run_scenario(closed_loop(silos * 32, 1.2, customers=96),
                               name, seed=17, silos=silos)
            working_set = run.app.runtime_stats()["working_set"]
            series[name].append((run.metrics.total_throughput,
                                 working_set["peak_resident"]))
    return series


@pytest.mark.benchmark(group="f4-scalability")
def test_f4_scalability(benchmark):
    series = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for name in APPS:
        base = series[name][0][0]
        row = {"app": name}
        for silos, (tput, peak) in zip(SILO_SWEEP, series[name]):
            row[f"{silos} silos (tx/s)"] = round(tput, 1)
            row[f"{silos}x speedup"] = round(tput / base, 2)
            # Memory footprint proxy: peak concurrently resident
            # grain activations / function addresses.
            row[f"{silos}x peak resident"] = peak
        rows.append(row)
    print_table("F4: throughput scaling with cluster size", rows)

    # Both scale up with more silos...
    for name in APPS:
        assert series[name][-1][0] > series[name][0][0]
    # ...but statefun scales worse than the eventual actor baseline
    # (checkpoint barriers are global: they stall every partition).
    eventual_speedup = series["orleans-eventual"][-1][0] / \
        series["orleans-eventual"][0][0]
    statefun_speedup = series["statefun"][-1][0] / \
        series["statefun"][0][0]
    assert eventual_speedup > statefun_speedup, (
        eventual_speedup, statefun_speedup)

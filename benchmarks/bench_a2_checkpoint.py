"""A2 — ablation: Statefun checkpoint interval vs throughput.

Statefun's exactly-once guarantee is paid for in aligned-checkpoint
stalls.  Sweeping the checkpoint interval exposes the trade-off:
frequent checkpoints cost throughput (more stop-the-world barriers),
infrequent ones cost recovery time (longer replay after a failure).
"""

import dataclasses

import pytest

from _harness import closed_loop, print_table
from repro.apps import StatefunApp
from repro.control import run_scenario

INTERVALS = (0.05, 0.25, 1.0, 0.0)  # 0 disables checkpointing


def run_sweep():
    cells = {}
    for interval in INTERVALS:
        # Two partitions (the harness's two silos), default sync cost.
        def app(env, config):
            return StatefunApp(env, dataclasses.replace(
                config, checkpoint_interval=interval))
        run = run_scenario(closed_loop(32, 1.5), app, seed=47)
        cells[interval] = (run.metrics, run.app.runtime.checkpoints_taken)
    return cells


@pytest.mark.benchmark(group="a2-checkpoint")
def test_a2_checkpoint_interval_tradeoff(benchmark):
    cells = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for interval in INTERVALS:
        metrics, checkpoints = cells[interval]
        rows.append({
            "interval (s)": interval if interval else "off",
            "checkpoints": checkpoints,
            "tx/s": round(metrics.total_throughput, 1),
            "checkout p50 (ms)": round(
                metrics.latency_of("checkout") * 1000, 2),
        })
    print_table("A2: checkpoint interval vs throughput", rows)

    # More frequent checkpoints -> more stalls -> lower throughput.
    assert cells[0.05][0].total_throughput \
        < cells[1.0][0].total_throughput
    # Disabling checkpoints is the throughput ceiling.
    best = cells[0.0][0].total_throughput
    for interval in (0.05, 0.25, 1.0):
        assert cells[interval][0].total_throughput <= best * 1.02
    # Checkpoint counts follow the configured cadence.
    assert cells[0.05][1] > cells[1.0][1]
    assert cells[0.0][1] == 0

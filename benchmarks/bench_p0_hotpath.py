"""P0 — simulator hot-path performance: committed tx per wall-second.

Unlike the F/A/T benches, which reproduce the paper's *simulated*
results, P0 measures the simulator itself: how many committed
transactions one wall-clock second buys, across run lengths, and how
many kernel events each of them costs.  This is the perf trajectory for
the copy-on-write state engine — before it, ``copy.deepcopy`` consumed
~82% of wall time and tx/s-wall degraded ~3x between the shortest and
longest cell below (the simulator was quadratic in run length).

The gated quantity is ``tx_per_wall_s``.  Events per wall-second is
reported but is not a goal: doing the same work in fewer events
*lowers* it while the simulator gets faster (``events_per_tx`` shows
which of the two moved).

Emits ``BENCH_P0_hotpath.json`` at the repo root; CI uploads it with
the other ``BENCH_*.json`` artifacts so the trajectory accumulates
per-commit data points.
"""

import json
import pathlib
import time

import pytest
from _harness import QUICK, print_table

from repro.apps import ALL_APPS, AppConfig
from repro.core import get_scenario
from repro.runtime import Environment

#: Run lengths (duration_scale of the baseline scenario).  Quick mode
#: drops the longest cell to keep the CI smoke job fast.
SCALES = (0.05, 0.2, 0.5) if not QUICK else (0.05, 0.2)

APP = "orleans-transactions"
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_P0_hotpath.json"
#: Committed before/after reference for the kernel optimisation
#: rounds; echoed into the artifact so a downloaded snapshot is
#: self-describing (the artifact itself is git-ignored).
BASELINE = pathlib.Path(__file__).resolve().parent / "perf_baseline.json"


def run_cell(duration_scale: float, seed: int = 7) -> dict:
    env = Environment(seed=seed)
    app = ALL_APPS[APP](env, AppConfig(silos=2, cores_per_silo=2))
    driver = get_scenario("baseline").build_driver(
        env, app, duration_scale=duration_scale, data_seed=seed)
    start = time.perf_counter()
    metrics = driver.run()
    wall = time.perf_counter() - start
    committed = sum(op.ok for op in metrics.ops.values())
    return {
        "duration_scale": duration_scale,
        "wall_s": round(wall, 4),
        "committed_tx": committed,
        "tx_per_wall_s": round(committed / wall, 1),
        "kernel_events": env.events_processed,
        "events_per_tx": round(env.events_processed / committed, 1),
        "events_per_wall_s": round(env.events_processed / wall, 1),
    }


@pytest.mark.benchmark(group="p0-hotpath")
def test_p0_hotpath_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_cell(scale) for scale in SCALES],
        rounds=1, iterations=1)
    print_table(f"P0: hot-path throughput per wall-second ({APP})", rows)

    baseline = json.loads(BASELINE.read_text())
    OUTPUT.write_text(json.dumps({
        "bench": "p0_hotpath",
        "app": APP,
        "quick": QUICK,
        "rows": rows,
        "reference": {
            "recorded": baseline["recorded"],
            "p0_hotpath": baseline["p0_hotpath"],
            "floor_tx_per_wall_s":
                baseline["floor"]["floor_tx_per_wall_s"],
        },
    }, indent=2) + "\n")

    for row in rows:
        assert row["committed_tx"] > 0
        assert row["tx_per_wall_s"] > 0
    # The whole point of the CoW engine: tx/s-wall must not collapse
    # with run length (pre-engine ~3x, now ~1.2x).  Single-shot cells
    # are noisy on shared CI, so this is only a catastrophe guard —
    # the strict best-of-N ratio lives in tests/test_perf_scaling.py.
    assert rows[0]["tx_per_wall_s"] < 3.0 * rows[-1]["tx_per_wall_s"]

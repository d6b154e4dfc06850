"""P2 — world-size scaling: memory tracks the touched set, not n.

Installing every record up front would make a million-product
catalogue cost a million products of memory before the first
transaction.  Instead every entity is derived from its identity on
first touch, a world this size is installed on first touch too, and
the Zipf sampler draws ranks without an O(n) CDF, so the *same
traffic* against a 100x larger keyspace should touch — and pay for —
almost the same working set.  The activation budget bounds the
resident grain population on top.

Each cell runs identical closed-loop traffic against 10^4, 10^5 and
10^6 product keys and reports the peak tracemalloc'd memory, the
working-set counters and tx/s per wall-second.  The acceptance
assertion is the scaling claim: peak memory at 10^6 keys stays under
3x the peak at 10^5 keys (eager scaling would be ~10x).

Emits ``BENCH_P2_scale.json`` at the repo root; CI uploads it with the
other ``BENCH_*.json`` artifacts.
"""

import gc
import json
import pathlib
import time
import tracemalloc

import pytest
from _harness import QUICK, print_table, run_experiment

#: Product keyspace sizes (sellers x 1000 products each).
KEY_SCALES = (10_000, 100_000, 1_000_000)

APP = "orleans-eventual"
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_P2_scale.json"


def run_cell(keys: int, seed: int = 11) -> dict:
    sellers = keys // 1000
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    metrics, _, app = run_experiment(
        APP, workers=16, duration=1.0, drain=0.6, seed=seed,
        app_kwargs={"activation_limit": 500},
        workload_kwargs={
            "sellers": sellers, "products_per_seller": 1000,
            "customers": 1000, "zipf_s": 0.8})
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    committed = sum(op.ok for op in metrics.ops.values())
    working_set = app.runtime_stats()["working_set"]
    summary = app.dataset.summary()
    return {
        "keys": keys,
        "wall_s": round(wall, 4),
        "peak_tracked_mb": round(peak / 1e6, 3),
        "committed_tx": committed,
        "tx_per_wall_s": round(committed / wall, 1),
        "touched_products": summary["touched_products"],
        "touched_customers": summary["touched_customers"],
        "activations": working_set["activations"],
        "evictions": working_set["evictions"],
        "reloads": working_set["reloads"],
        "peak_resident": working_set["peak_resident"],
    }


@pytest.mark.benchmark(group="p2-scale")
def test_p2_world_size_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_cell(keys) for keys in KEY_SCALES],
        rounds=1, iterations=1)
    print_table(f"P2: memory vs world size, same traffic ({APP})", rows)

    OUTPUT.write_text(json.dumps({
        "bench": "p2_scale",
        "app": APP,
        "quick": QUICK,
        "rows": rows,
    }, indent=2) + "\n")

    by_keys = {row["keys"]: row for row in rows}
    for row in rows:
        assert row["committed_tx"] > 0
        assert row["activations"] > 0
    # The working-set budget actually bites: idle grains are paged out
    # and come back.
    assert by_keys[1_000_000]["evictions"] > 0
    assert by_keys[1_000_000]["reloads"] > 0
    # The scaling claim: a 10x larger keyspace under identical
    # traffic costs well under 10x the memory — the touched set, not
    # the configured world, is what's resident.
    assert by_keys[1_000_000]["peak_tracked_mb"] < \
        3.0 * by_keys[100_000]["peak_tracked_mb"], rows
    # Generation really is on demand: the driver only ever touches a
    # vanishing fraction of the million keys.
    assert by_keys[1_000_000]["touched_products"] < 100_000

#!/usr/bin/env python3
"""CI perf regression gate for the P0 hot-path benchmark.

Compares the freshly generated ``BENCH_P0_hotpath.json`` (the bench
smoke job runs with ``REPRO_BENCH_QUICK=1``) against the committed
floor in ``benchmarks/perf_baseline.json``:

* best committed tx per wall-second across rows below 90 % of the
  floor  -> warning
* ... below 75 % of the floor  -> exit 1

The gated rate is transactions, not kernel events, per wall-second:
a change that does the same work in fewer events lowers events/s while
the simulator gets faster, so events/s (and events/tx) are printed
beside the verdict and never gated.  The floor is a measurement, not a
guess: the slowest best-row rate seen over repeated quick-mode runs on
the reference box (``floor.derivation`` in
``benchmarks/perf_baseline.json``), so the hard gate sits 25 % under
the worst the current tree has been observed to do.  Re-measure and
update it when the simulator — or the class of machine CI runs on —
genuinely changes speed.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_P0_hotpath.json"
SCALE_ARTIFACT = REPO_ROOT / "BENCH_P2_scale.json"
ELASTICITY_ARTIFACT = REPO_ROOT / "BENCH_E0_elasticity.json"
BASELINE = REPO_ROOT / "benchmarks" / "perf_baseline.json"

WARN_FRACTION = 0.90
FAIL_FRACTION = 0.75
#: Memory axis (P2): peak tracked MB at 10^6 keys may be at most this
#: multiple of the 10^5-key cell under identical traffic — the lazy
#: dataset + working-set budget contract.  Eager scaling would be ~10x.
MEMORY_RATIO_LIMIT = 3.0


def check_memory_axis() -> int:
    """Gate the P2 world-size memory ratio; skip if the bench didn't run."""
    if not SCALE_ARTIFACT.exists():
        print(f"memory axis: {SCALE_ARTIFACT.name} not found — skipped "
              "(run bench_p2_scale.py to enable)")
        return 0
    payload = json.loads(SCALE_ARTIFACT.read_text())
    by_keys = {row["keys"]: row for row in payload.get("rows", ())}
    small = by_keys.get(100_000)
    large = by_keys.get(1_000_000)
    if not small or not large or not small.get("peak_tracked_mb"):
        print("memory axis: P2 artifact lacks the 10^5/10^6 cells — "
              "skipped")
        return 0
    ratio = large["peak_tracked_mb"] / small["peak_tracked_mb"]
    print(f"P2 memory ratio 10^6/10^5 keys: {ratio:.2f}x "
          f"({large['peak_tracked_mb']:.1f} MB / "
          f"{small['peak_tracked_mb']:.1f} MB; limit "
          f"{MEMORY_RATIO_LIMIT:.1f}x)")
    if ratio >= MEMORY_RATIO_LIMIT:
        print(f"FAIL: memory grows {ratio:.2f}x from 10^5 to 10^6 keys "
              "— lazy-dataset or working-set control has regressed",
              file=sys.stderr)
        return 1
    print("memory axis gate: OK")
    return 0


def check_elasticity_axis(baseline: dict) -> int:
    """Gate the E0 SLO-violation time; skip when bench or floor absent."""
    floor = baseline.get("elasticity", {}).get("max_violation_seconds")
    if floor is None:
        print("elasticity axis: no floor committed in "
              "perf_baseline.json — skipped")
        return 0
    if not ELASTICITY_ARTIFACT.exists():
        print(f"elasticity axis: {ELASTICITY_ARTIFACT.name} not found — "
              "skipped (run bench_e0_elasticity.py to enable)")
        return 0
    payload = json.loads(ELASTICITY_ARTIFACT.read_text())
    scale = payload.get("duration_scale") or 1.0
    status = 0
    for app, pair in sorted(payload.get("apps", {}).items()):
        elastic = pair["elastic"]
        # Quick mode compresses the experiment clock; normalise the
        # violation time back to the full-length run for the gate.
        violation = elastic["slo_violation_seconds"] / scale
        print(f"E0 {app}: violation {violation:.2f}s normalised "
              f"(limit {floor:.1f}s), "
              f"recovered={elastic['recovered']}")
        if not elastic["recovered"]:
            print(f"FAIL: {app} ended the elastic flash sale out of "
                  "SLO — the autoscaler no longer restores the p95",
                  file=sys.stderr)
            status = 1
        elif violation > floor:
            print(f"FAIL: {app} spent {violation:.2f}s out of SLO "
                  f"(limit {floor:.1f}s) — scale-out has become too "
                  "slow", file=sys.stderr)
            status = 1
    if status == 0:
        print("elasticity gate: OK")
    return status


def main() -> int:
    if not ARTIFACT.exists():
        print(f"error: {ARTIFACT.name} not found — run the P0 bench first "
              "(REPRO_BENCH_QUICK=1 python -m pytest "
              "benchmarks/bench_p0_hotpath.py -q -s)", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE.read_text())
    floor = baseline["floor"]["floor_tx_per_wall_s"]

    payload = json.loads(ARTIFACT.read_text())
    rows = [row for row in payload["rows"] if row.get("tx_per_wall_s")]
    if not rows:
        print("error: no tx_per_wall_s rows in the artifact",
              file=sys.stderr)
        return 2
    best_row = max(rows, key=lambda row: row["tx_per_wall_s"])
    best = best_row["tx_per_wall_s"]

    print(f"P0 best tx/s-wall: {best:,.0f}  (floor {floor:,.0f}; "
          f"warn <{WARN_FRACTION:.0%}, fail <{FAIL_FRACTION:.0%})  "
          f"[not gated: {best_row.get('events_per_tx', '?')} events/tx, "
          f"{best_row.get('events_per_wall_s', 0):,.0f} events/s]")
    if best < floor * FAIL_FRACTION:
        print(f"FAIL: {best:,.0f} tx/s-wall is below "
              f"{FAIL_FRACTION:.0%} of the committed floor — "
              "the hot path has regressed badly", file=sys.stderr)
        return 1
    if best < floor * WARN_FRACTION:
        print(f"WARNING: {best:,.0f} tx/s-wall is below "
              f"{WARN_FRACTION:.0%} of the committed floor — "
              "check recent hot-path changes (may be runner noise)")
    else:
        print("perf floor gate: OK")
    return max(check_memory_axis(), check_elasticity_axis(baseline))


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two ledgers: one row per workload x end-to-end metric.

The verdict follows the bound BENCHMARK.json fixes for the metric:

``same``        B is within the bound of A;
``better``      B is better than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  a host timing whose noise is wider than the bound —
                the two fastest cells of a run disagree, or the
                machine itself (the calibration loop) moved between
                the runs — so neither "same" nor a change is shown.
"""

from __future__ import annotations

import json
import pathlib


def verdict(a: dict, b: dict, better: str, bound: float,
            machine_shift: float) -> tuple[str, float]:
    """``(verdict, ratio)`` with ``ratio = B / A``."""
    ratio = b["value"] / a["value"]
    timed = "floor_gap" in a
    noise = max(a.get("floor_gap", 0.0), b.get("floor_gap", 0.0),
                machine_shift if timed else 0.0)
    if noise > bound:
        return "unresolved", ratio
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "same", ratio


def compare(path_a: pathlib.Path, path_b: pathlib.Path,
            spec: dict) -> int:
    """Print the comparison; non-zero when any row is ``worse``."""
    ledger_a = json.loads(path_a.read_text())
    ledger_b = json.loads(path_b.read_text())
    for label, ledger in (("A", ledger_a), ("B", ledger_b)):
        if not ledger.get("comparable", False):
            print(f"warning: {label} was run with --cells, --scale or "
                  f"--trace and is not comparable")
    print(f"{'workload':18s} {'metric':20s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    worse = 0
    for name, a in ledger_a["workloads"].items():
        b = ledger_b["workloads"].get(name)
        if b is None:
            print(f"{name:18s} missing from B")
            worse += 1
            continue
        machine_shift = abs(b["per_layer"]["host.calib_ms"]
                            / a["per_layer"]["host.calib_ms"] - 1.0)
        for metric in spec["end_to_end"]:
            key = metric["name"]
            result, ratio = verdict(
                a["end_to_end"][key], b["end_to_end"][key],
                metric["better"], metric["bound"], machine_shift)
            worse += result == "worse"
            print(f"{name:18s} {key:20s} "
                  f"{a['end_to_end'][key]['value']:14.6g} "
                  f"{b['end_to_end'][key]['value']:14.6g} "
                  f"{ratio:8.4f} {metric['bound']:6.2f}  {result}")
        if a["payload"] != b["payload"]:
            print(f"{name:18s} payload differs: {a['payload']} -> "
                  f"{b['payload']} (simulated statistics changed)")
    return 1 if worse else 0

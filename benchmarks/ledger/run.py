"""`ledger`: the repo's one benchmark.

Six workloads, two clocks (host seconds the simulator costs, simulated
seconds of the modelled platforms), one process, one thread::

    python3 benchmarks/ledger/run.py --seed 210 --out BENCH_LEDGER.json
    python3 benchmarks/ledger/run.py --workload long-2pc --seed 7 \
        --seconds 8 --trace 0
    python3 benchmarks/ledger/run.py --compare A.json B.json

Without ``--workload`` all six run, their cells interleaved; without
``--trace`` both metric groups are measured.  Every metric is printed
by name with unit and clock; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output checked out.  README.md beside
this file is the glossary.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parents[1] / "src"), str(_HERE)]

from compare import compare  # noqa: E402
from ledger import (  # noqa: E402
    Overrun,
    chrome_trace,
    plan,
    run_passes,
    summarise,
)
from workloads import WORKLOADS  # noqa: E402

#: The contract: workloads, metrics, units, directions and bounds.
SPEC_PATH = _HERE.parents[1] / "BENCHMARK.json"


def clock_of(name: str, unit: str) -> str:
    """Which clock a metric reads: ``host`` wall time, ``sim`` time,
    or ``count`` (exact, no clock)."""
    if name.startswith(("sim_", "op.")) and unit != "count" \
            or name.endswith("queue_delay_p95_ms"):
        return "sim"
    if unit in ("s", "ms", "1/s", "MB", "x") \
            or name.endswith((".self_share", "calib_spread")):
        return "host"
    return "count"


def leftover_workers() -> list[str]:
    """Child processes and threads still alive; must be none."""
    found = []
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        found += [repr(child)
                  for child in multiprocessing.active_children()]
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() != 1:
        found += [thread.name for thread in threading.enumerate()
                  if thread is not threading.main_thread()]
    return found


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=210,
                        help="workload seed; cell i runs seed*100+i")
    parser.add_argument("--seconds", type=float,
                        help="host seconds of timed cells per workload "
                             "on the sizing box; fixes the cell count")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; "
                             "1: per-layer metrics only")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the ledger here and the spans "
                             "beside it as <stem>_trace.json")
    parser.add_argument("--cells", type=int,
                        help="smoke tests: timed cells per workload "
                             "(result marked non-comparable)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="smoke tests: shrink every cell "
                             "(result marked non-comparable)")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("A.json", "B.json"),
                        help="compare two ledgers written with --out")
    args = parser.parse_args(argv)
    if args.cells is not None and args.cells < 1:
        parser.error("--cells must be at least 1")
    if args.scale <= 0:
        parser.error("--scale must be > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        return compare(*args.compare, spec)

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    kinds = ("profile",) if args.trace == 0 else ("profile", "memory")
    groups = [group for group, wanted
              in (("end_to_end", args.trace != 1),
                  ("per_layer", args.trace != 0)) if wanted]
    plans = [plan(WORKLOADS[name], args.seed,
                  args.cells or WORKLOADS[name].cells_for(seconds), kinds)
             for name in names]
    try:
        results = run_passes(plans, scale=args.scale)
    except Overrun as overrun:
        print(f"error: {overrun}", file=sys.stderr)
        return 2

    ledger = {
        "benchmark": "ledger", "seed": args.seed, "seconds": seconds,
        "comparable": (args.cells is None and args.scale == 1.0
                       and args.trace is None),
        "workloads": {name: summarise(passes)
                      for name, passes in results.items()},
    }
    leftovers = leftover_workers()

    metrics = {}
    for name, summary in ledger["workloads"].items():
        if leftovers:
            summary["problems"].append(f"left running: {leftovers}")
            summary["correct"] = False
        prefix = f"{name}/" if len(names) > 1 else ""
        print(f"== {name}: {summary['cells']} cells, payload "
              f"{summary['payload']}, attempted {summary['attempted']}, "
              f"failed {summary['failed']}")
        for group in groups:
            measured = summary[group]
            for metric in spec[group]:
                key, unit = metric["name"], metric["unit"]
                value = measured.get(key)
                if isinstance(value, dict):
                    value = value["value"]
                if value is None:
                    summary["problems"].append(f"{key}: not measured")
                    summary["correct"] = False
                print(f"{key:34s} {value!r:>24} {unit:6s} "
                      f"{clock_of(key, unit)}")
                metrics[prefix + key] = {"value": value, "unit": unit}
            extra = set(measured) - {metric["name"]
                                     for metric in spec[group]}
            if extra:
                summary["problems"].append(
                    f"not in BENCHMARK.json: {sorted(extra)}")
                summary["correct"] = False
        for problem in summary["problems"]:
            print(f"PROBLEM {name}: {problem}")

    if args.out is not None:
        args.out.write_text(json.dumps(ledger, indent=1) + "\n")
        args.out.with_name(args.out.stem + "_trace.json").write_text(
            json.dumps(chrome_trace(results)) + "\n")
    correct = all(summary["correct"]
                  for summary in ledger["workloads"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(summary["attempted"]
                         for summary in ledger["workloads"].values()),
        "failed": sum(summary["failed"]
                      for summary in ledger["workloads"].values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface for the Online Marketplace benchmark.

Examples
--------
Run one implementation and print its results::

    python -m repro.cli run --app orleans-eventual --workers 32 \
        --duration 3.0

Compare all four implementations (throughput + criteria matrix)::

    python -m repro.cli compare --workers 32 --duration 2.0

Audit anomalies under message loss::

    python -m repro.cli audit --app orleans-eventual --drop 0.02

Replay a named open-loop scenario (run ``scenario --list`` for the
catalogue)::

    python -m repro.cli scenario flash-sale --app orleans-eventual

Reproduce the whole comparison surface — scenario × app × seed ×
rate-scale cells fanned across worker processes, merged into one
cross-app report::

    python -m repro.cli matrix --workers 4 --seeds 1,2,3
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import typing

from repro.analysis.anomalies import AnomalyReport
from repro.analysis.availability import availability_report
from repro.analysis.elasticity import elasticity_report
from repro.analysis.matrix_report import (
    matrix_report_json,
    render_matrix_report,
)
from repro.apps import ALL_APPS
from repro.control.facade import run_scenario
from repro.core import MatrixSpec, WorkloadConfig, run_matrix
from repro.core.criteria import CRITERIA
from repro.core.matrix import MatrixProgress
from repro.core.scenarios import Scenario, get_scenario, scenario_names
from repro.core.workload.config import TransactionMix


def _ranged(kind: type, rule: str, holds):
    """An argparse ``type=`` parsing ``kind`` and checking ``holds``: a
    value out of range is a usage error (exit 2), not a traceback."""
    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


_COUNT = _ranged(int, ">= 1", lambda value: value >= 1)
_POSITIVE = _ranged(float, "finite and > 0",
                    lambda value: 0 < value < math.inf)
_NON_NEGATIVE = _ranged(float, "finite and >= 0",
                        lambda value: 0 <= value < math.inf)
_PROBABILITY = _ranged(float, "in [0, 1]", lambda value: 0 <= value <= 1)


def _add_cluster_arguments(parser: argparse.ArgumentParser,
                           silos_default: int | None = 4,
                           cores_default: int | None = 4,
                           drop_default: float | None = 0.0) -> None:
    parser.add_argument("--silos", type=_COUNT, default=silos_default,
                        help="cluster size (silos / partitions)")
    parser.add_argument("--cores", type=_COUNT, default=cores_default,
                        help="CPU cores per silo")
    parser.add_argument("--drop", type=_PROBABILITY, default=drop_default,
                        help="message-loss probability")
    parser.add_argument("--seed", type=int, default=42,
                        help="simulation + dataset RNG seed")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_COUNT, default=32,
                        help="closed-loop driver workers")
    parser.add_argument("--duration", type=_POSITIVE, default=2.0,
                        help="measured window (simulated seconds)")
    parser.add_argument("--warmup", type=_NON_NEGATIVE, default=0.5,
                        help="warm-up (simulated seconds)")
    parser.add_argument("--sellers", type=_COUNT, default=10)
    parser.add_argument("--customers", type=_COUNT, default=100)
    parser.add_argument("--products", type=_COUNT, default=10,
                        help="products per seller")
    parser.add_argument("--zipf", type=_NON_NEGATIVE, default=0.8,
                        help="product popularity skew")
    parser.add_argument("--checkout-weight", type=_NON_NEGATIVE,
                        default=65.0)
    _add_cluster_arguments(parser)


def _run_one(app_name: str, args: argparse.Namespace):
    workload = WorkloadConfig(
        sellers=args.sellers, customers=args.customers,
        products_per_seller=args.products, zipf_s=args.zipf,
        mix=TransactionMix(checkout=args.checkout_weight))
    run = run_scenario(
        Scenario(name="closed-loop", description="the CLI's closed loop",
                 workload=workload, population=args.workers,
                 warmup=args.warmup, duration=args.duration, drain=1.0),
        app_name, seed=args.seed, silos=args.silos, cores=args.cores,
        drop_probability=args.drop)
    return run.metrics, run.report


def _print_metrics(metrics, stream: typing.TextIO) -> None:
    print(f"\napp: {metrics.app}  workers: {metrics.workers}  "
          f"window: {metrics.duration}s (simulated)", file=stream)
    print(f"total committed throughput: "
          f"{metrics.total_throughput:,.1f} tx/s", file=stream)
    header = (f"{'operation':18s} {'ok':>7s} {'rej':>5s} {'fail':>5s} "
              f"{'tx/s':>9s} {'p50 ms':>8s} {'p99 ms':>8s}")
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for name, op in sorted(metrics.ops.items()):
        print(f"{name:18s} {op.ok:7d} {op.rejected:5d} {op.failed:5d} "
              f"{op.throughput:9.1f} {op.latency['p50'] * 1000:8.2f} "
              f"{op.latency['p99'] * 1000:8.2f}", file=stream)


def _print_report(report, stream: typing.TextIO) -> None:
    print("\ncriteria:", file=stream)
    for name in CRITERIA:
        result = report.results.get(name)
        if result is None:
            continue
        status = ("pass" if result.passed
                  else f"FAIL ({result.violations}/{result.checked})")
        print(f"  {name:28s} {status}", file=stream)


def cmd_run(args: argparse.Namespace,
            stream: typing.TextIO = sys.stdout) -> int:
    metrics, report = _run_one(args.app, args)
    _print_metrics(metrics, stream)
    _print_report(report, stream)
    return 0


def cmd_compare(args: argparse.Namespace,
                stream: typing.TextIO = sys.stdout) -> int:
    results = {name: _run_one(name, args) for name in ALL_APPS}
    print(f"\n{'implementation':24s} {'tx/s':>9s} {'checkout p50':>13s} "
          f"{'criteria':>9s}", file=stream)
    print("-" * 60, file=stream)
    for name, (metrics, report) in results.items():
        passed = sum(result.passed
                     for result in report.results.values())
        total = len(report.results)
        print(f"{name:24s} {metrics.total_throughput:9,.0f} "
              f"{metrics.latency_of('checkout') * 1000:11.2f}ms "
              f"{passed:>5d}/{total}", file=stream)
    print("\ncriteria matrix:", file=stream)
    header = f"{'implementation':24s} " + "  ".join(
        criterion.split('-')[0] for criterion in CRITERIA)
    print(header, file=stream)
    for name, (_, report) in results.items():
        cells = []
        for criterion in CRITERIA:
            result = report.results.get(criterion)
            cells.append("pass" if result is None or result.passed
                         else "FAIL")
        print(f"{name:24s} " + "  ".join(cells), file=stream)
    return 0


def cmd_audit(args: argparse.Namespace,
              stream: typing.TextIO = sys.stdout) -> int:
    metrics, report = _run_one(args.app, args)
    anomalies = AnomalyReport.from_report(report, metrics)
    print(f"\napp: {args.app}  drop: {args.drop:.1%}  "
          f"transactions: {anomalies.transactions}", file=stream)
    for criterion, count in sorted(anomalies.violations.items()):
        print(f"  {criterion:28s} {count:6d} violations "
              f"({anomalies.per_10k(criterion):8.2f} per 10k tx)",
              file=stream)
    print(f"  {'TOTAL':28s} {anomalies.total_violations:6d} "
          f"({anomalies.per_10k():8.2f} per 10k tx)", file=stream)
    return 0 if report.all_pass else 1


def _print_scenario_metrics(scenario, metrics,
                            stream: typing.TextIO) -> None:
    stats = metrics.open_loop
    print(f"\nscenario: {scenario.name}  app: {metrics.app}", file=stream)
    print(scenario.description, file=stream)
    print(f"\noffered rate: {stats['offered_rate']:,.1f} arrivals/s  "
          f"arrivals: {stats['arrivals']}  "
          f"completed: {stats['completed']}  shed: {stats['shed']}",
          file=stream)
    print(f"dispatch pool: {metrics.workers}  "
          f"max in-flight: {stats['max_in_flight']}  "
          f"max queue: {stats['max_queue']}  "
          f"queue at drain end: {stats['final_queue']}", file=stream)
    print(f"total committed throughput: "
          f"{metrics.total_throughput:,.1f} tx/s", file=stream)
    header = (f"{'operation':18s} {'ok':>7s} {'rej':>5s} {'fail':>5s} "
              f"{'svc p50':>8s} {'svc p99':>8s} {'queue p50':>10s} "
              f"{'queue p99':>10s}")
    print("\nservice latency vs queueing delay (ms):", file=stream)
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for name, op in sorted(metrics.ops.items()):
        queue = op.queue_delay or {}
        print(f"{name:18s} {op.ok:7d} {op.rejected:5d} {op.failed:5d} "
              f"{op.latency['p50'] * 1000:8.2f} "
              f"{op.latency['p99'] * 1000:8.2f} "
              f"{queue.get('p50', 0.0) * 1000:10.2f} "
              f"{queue.get('p99', 0.0) * 1000:10.2f}", file=stream)
    if metrics.timeline:
        print("\nthroughput timeline (completions per simulated "
              "second):", file=stream)
        peak = max(count for _, count in metrics.timeline)
        for second, count in metrics.timeline:
            bar = "#" * max(1, round(count / peak * 40))
            print(f"  t={second:3d}s {count:6d} {bar}", file=stream)


def _print_availability(metrics, stream: typing.TextIO) -> None:
    report = availability_report(metrics)
    print("\nmembership fault timeline:", file=stream)
    for entry in metrics.open_loop.get("fault_events", ()):
        target = f" {entry['target']}" if entry["target"] else ""
        status = "applied" if entry["applied"] else \
            f"skipped ({entry['detail']})"
        print(f"  t={entry['second']:3d}s {entry['action']}{target}: "
              f"{status}", file=stream)
    if report.fault_second is None:
        print("no disruptive fault was applied; "
              "availability unaffected.", file=stream)
        return
    print("\navailability (per measured second):", file=stream)
    for row in report.rows:
        flag = "" if row["available"] else "  << unavailable"
        print(f"  t={row['second']:3d}s ok={row['ok']:6d} "
              f"err={row['errors']:5d}{flag}", file=stream)
    window = report.unavailability_window
    window_text = (f"seconds {window[0]}..{window[1]} "
                   f"({report.unavailable_seconds} degraded)"
                   if window else "empty")
    recovery = (f"{report.recovery_time:.0f}s after the fault"
                if report.recovery_time is not None
                else "not reached in the window")
    print(f"\npre-fault throughput: {report.pre_fault_tps:,.1f} tx/s",
          file=stream)
    print(f"unavailability window: {window_text}", file=stream)
    print(f"recovery to pre-fault throughput: {recovery}", file=stream)
    print(f"state-loss anomalies (volatile grains crashed): "
          f"{report.state_loss_events}", file=stream)
    print(f"clean volatile handoffs (drain/migration): "
          f"{report.volatile_handoffs}", file=stream)
    print(f"messages rerouted: {report.reroutes}  "
          f"calls failed unavailable: {report.unavailable_failures}",
          file=stream)


def _print_elasticity(metrics, app: str,
                      stream: typing.TextIO) -> None:
    control = metrics.open_loop["control"]
    report = elasticity_report(control, app=app)
    print("\nautoscaler timeline (controller samples):", file=stream)
    for sample in control["samples"]:
        flag = "  << SLO breach" if sample["breach"] else ""
        action = f"  -> {sample['action']}" if sample["action"] else ""
        print(f"  t={sample['time']:5.2f}s p95={sample['p95_ms']:7.2f}ms "
              f"err={sample['error_rate'] * 100:4.1f}% "
              f"rate={sample['arrival_rate']:6.0f}/s "
              f"silos={sample['silos']}{action}{flag}", file=stream)
    if report is None:
        return
    lag = (f"{report.scaling_lag:.2f}s"
           if report.scaling_lag is not None else "-")
    if report.recovery_time is not None:
        recovery = f"{report.recovery_time:.2f}s"
    elif report.recovered:
        recovery = "-"  # nothing ever breached
    else:
        recovery = "not reached"
    print(f"\nSLO violation time: {report.slo_violation_seconds:.2f}s  "
          f"scaling lag: {lag}  recovery: {recovery}", file=stream)
    print(f"silo range: {report.min_silos}..{report.peak_silos}  "
          f"scale-ups: {report.scale_ups}  "
          f"scale-downs: {report.scale_downs}", file=stream)
    print(f"provisioning vs ideal curve: "
          f"over {report.over_provisioned_area:.2f} silo-s, "
          f"under {report.under_provisioned_area:.2f} silo-s "
          f"(actual {report.silo_seconds:.1f}, "
          f"ideal {report.ideal_silo_seconds:.1f})", file=stream)


def cmd_scenario(args: argparse.Namespace,
                 stream: typing.TextIO = sys.stdout) -> int:
    if args.list or args.name is None:
        print("available scenarios:", file=stream)
        for name in scenario_names():
            scenario = get_scenario(name)
            print(f"  {name:20s} {scenario.description}", file=stream)
        return 0
    try:
        # One canonical assembly path: a scenario pins the cluster
        # shape / fault knobs it was designed for, explicit flags win
        # (None = use the pin) — run_scenario owns those semantics.
        run = run_scenario(args.name, app=args.app, seed=args.seed,
                           rate_scale=args.rate_scale,
                           duration_scale=args.duration_scale,
                           silos=args.silos, cores=args.cores,
                           drop_probability=args.drop)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=stream)
        return 2
    metrics = run.metrics
    _print_scenario_metrics(run.scenario, metrics, stream)
    if metrics.open_loop.get("fault_events"):
        _print_availability(metrics, stream)
    if metrics.open_loop.get("control"):
        _print_elasticity(metrics, args.app, stream)
    _print_report(run.report, stream)
    return 0


def _split_csv(values: typing.Sequence[str] | None) -> list[str]:
    """Flatten repeatable, comma-separated flag values."""
    if not values:
        return []
    return [item.strip() for value in values
            for item in value.split(",") if item.strip()]


def cmd_matrix(args: argparse.Namespace,
               stream: typing.TextIO = sys.stdout) -> int:
    scenarios = _split_csv(args.scenario) or scenario_names()
    apps = _split_csv(args.app) or sorted(ALL_APPS)
    try:
        seeds = [int(seed) for seed in _split_csv(args.seeds)] or [42]
        rate_scales = [float(scale)
                       for scale in _split_csv(args.rate_scale)] or [1.0]
        spec = MatrixSpec(scenarios=scenarios, apps=apps, seeds=seeds,
                          rate_scales=rate_scales,
                          duration_scale=args.duration_scale)
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=stream)
        return 2
    cells = spec.cells()
    workers = args.workers or min(len(cells), os.cpu_count() or 1)
    print(f"matrix: {len(cells)} cells "
          f"({len(spec.scenarios)} scenarios x {len(spec.apps)} apps "
          f"x {len(spec.seeds)} seeds x {len(spec.rate_scales)} "
          f"rate-scales)  workers: {workers}", file=stream)
    if args.dry_run:
        for cell in cells:
            print(f"  {cell.cell_id}", file=stream)
        return 0

    finished = [0]

    def progress(event: MatrixProgress) -> None:
        if event.kind == "start":
            print(f"[{finished[0]:3d}/{event.total}] start "
                  f"{event.cell.cell_id}", file=stream)
            return
        finished[0] += 1
        result = event.result
        tps = (f"{result.payload['total_tps']:,.1f} tx/s"
               if result.ok else result.error)
        print(f"[{finished[0]:3d}/{event.total}] {result.status:7s} "
              f"{event.cell.cell_id}  {result.wall_s:.1f}s wall  {tps}",
              file=stream)

    result = run_matrix(spec, workers=workers,
                        progress=None if args.quiet else progress)
    print(file=stream)
    print(render_matrix_report(result), end="", file=stream)
    if args.json:
        path = pathlib.Path(args.json)
        path.write_text(json.dumps(matrix_report_json(result),
                                   indent=2) + "\n")
        print(f"\nwrote {path}", file=stream)
    return 0 if not result.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Online Marketplace benchmark CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="closed-loop run of one implementation",
        description="Run one implementation under the closed-loop "
                    "driver (N workers submit, wait, repeat) and print "
                    "its throughput/latency table and criteria audit.",
        epilog="example: repro run --app orleans-transactions "
               "--workers 32 --duration 3.0")
    run_parser.add_argument("--app", choices=sorted(ALL_APPS),
                            default="orleans-eventual")
    _add_common_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = subparsers.add_parser(
        "compare",
        help="closed-loop run of all four implementations",
        description="Run every implementation under the same "
                    "closed-loop configuration and print the "
                    "throughput ranking plus the criteria matrix.",
        epilog="example: repro compare --workers 32 --duration 2.0")
    _add_common_arguments(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    audit_parser = subparsers.add_parser(
        "audit",
        help="anomaly audit for one implementation",
        description="Run one implementation, then normalise criteria "
                    "violations to anomalies per 10k transactions. "
                    "Exits non-zero when any criterion fails.",
        epilog="example: repro audit --app orleans-eventual "
               "--drop 0.02")
    audit_parser.add_argument("--app", choices=sorted(ALL_APPS),
                              default="orleans-eventual")
    _add_common_arguments(audit_parser)
    audit_parser.set_defaults(func=cmd_audit)

    scenario_parser = subparsers.add_parser(
        "scenario", help="replay a named open-loop scenario",
        description="Replay one scenario from the open-loop catalogue "
                    "against one implementation; fault scenarios "
                    "append an availability report.",
        epilog="example: repro scenario flash-sale "
               "--app orleans-eventual --rate-scale 0.5")
    scenario_parser.add_argument(
        "name", nargs="?", default=None,
        help="scenario name (omit or use --list for the catalogue)")
    scenario_parser.add_argument("--list", action="store_true",
                                 help="list the scenario catalogue")
    scenario_parser.add_argument("--app", choices=sorted(ALL_APPS),
                                 default="orleans-eventual")
    scenario_parser.add_argument(
        "--rate-scale", type=_POSITIVE, default=1.0,
        help="multiply the scenario's arrival rates")
    scenario_parser.add_argument(
        "--duration-scale", type=_POSITIVE, default=1.0,
        help="stretch or shrink the measured window")
    # None = let the scenario's pinned cluster shape / fault knobs
    # (if any) apply.
    _add_cluster_arguments(scenario_parser, silos_default=None,
                           cores_default=None, drop_default=None)
    scenario_parser.set_defaults(func=cmd_scenario)

    matrix_parser = subparsers.add_parser(
        "matrix",
        help="run a scenario x app x seed x rate-scale matrix "
             "across worker processes",
        description="Expand the scenario x app x seed x rate-scale "
                    "cross product and run every cell (each a "
                    "deterministic open-loop experiment) across a "
                    "pool of worker processes, then print one merged "
                    "cross-app report per scenario with seed-sweep "
                    "error bars. A failed or crashed cell is recorded "
                    "and the rest of the matrix keeps running; the "
                    "exit status is non-zero when any cell failed.",
        epilog="examples:\n"
               "  repro matrix --workers 4 --seeds 1,2,3\n"
               "  repro matrix --scenario baseline,flash-sale "
               "--app orleans-eventual --rate-scale 0.5,1.0\n"
               "  repro matrix --duration-scale 0.2 --dry-run",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    matrix_parser.add_argument(
        "--scenario", action="append", metavar="NAME[,NAME...]",
        help="scenario filter, repeatable or comma-separated "
             "(default: the full catalogue)")
    matrix_parser.add_argument(
        "--app", action="append", metavar="NAME[,NAME...]",
        help="implementation filter, repeatable or comma-separated "
             "(default: all four)")
    matrix_parser.add_argument(
        "--seeds", action="append", metavar="N[,N...]",
        help="seed sweep for error bars, e.g. 1,2,3 (default: 42)")
    matrix_parser.add_argument(
        "--rate-scale", action="append", metavar="X[,X...]",
        help="arrival-rate multipliers, e.g. 0.5,1.0 (default: 1.0)")
    matrix_parser.add_argument(
        "--duration-scale", type=_POSITIVE, default=1.0,
        help="stretch/shrink every cell's time axis (platform constants "
             "such as failure detection are not stretched)")
    matrix_parser.add_argument(
        "--workers", type=_ranged(int, ">= 0", lambda value: value >= 0),
        default=0,
        help="worker processes; 0 = one per CPU core, capped at the "
             "cell count (cells are single-threaded, so more workers "
             "than cores stops helping)")
    matrix_parser.add_argument(
        "--json", metavar="PATH",
        help="write per-cell payloads + merged tables as JSON")
    matrix_parser.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded cell list and exit")
    matrix_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines")
    matrix_parser.set_defaults(func=cmd_matrix)
    return parser


def main(argv: typing.Sequence[str] | None = None,
         stream: typing.TextIO = sys.stdout) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, stream)


if __name__ == "__main__":
    sys.exit(main())

"""The ledger's passes and the metrics they yield.

Per workload a run makes three passes over cells of one shape:

*timed*
    ``cells`` cells with sub-seeds ``seed*100+i``, nothing observing
    them.  Every host timing and every simulated statistic comes from
    here.
*profile*
    sub-seed 0 again under ``cProfile``: the exact call count behind
    ``host_calls_per_tx`` and, folded by package path, each layer's
    share of self time and calls.  Its steps are the run's spans.
*memory*
    sub-seed 0 again under ``tracemalloc``.

Sub-seed 0's payload hash must be identical in all three: observing a
run may not perturb it.

Host timings are reported as the *fastest* cell.  On a shared box
interference only ever adds time (sizing runs: single cells spread
22 % between quartiles, the fastest of three cells 8 %), so the
fastest of N cells of one shape estimates the program's own cost;
the median and quartiles are kept beside it.  The observed passes sit
between the timed cells so that the timed cells sample more than one
stretch of machine weather.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import importlib
import itertools
import os
import statistics
import time
import tracemalloc

import repro.cow
from repro.analysis.stats import percentile
from repro.core import StreamingHistogram

from cell import Cell, run_cell
from workloads import Workload

#: Layers are the packages under ``src/repro``; ``other`` is the rest
#: (``core.matrix``, ``core.scenarios``, ``cli`` and the stdlib).
LAYERS = ("runtime", "cow", "actors", "txn", "dataflow", "broker",
          "kvstore", "sqlstore", "marketplace", "apps", "core.workload",
          "core.driver", "core.criteria", "control", "analysis", "other")

OPERATIONS = ("checkout", "update_price", "delete_product",
              "update_delivery", "dashboard")

#: Functions whose call counts are layer metrics of their own.
PROFILE_TARGETS = {
    "runtime.processes_per_tx": "repro.runtime.process:Process.__init__",
    "runtime.timeouts_per_tx": "repro.runtime.events:Timeout.__init__",
    "cow.views_per_tx": "repro.cow:CowState.__init__",
    "cow.materialize_per_tx": "repro.cow:materialize",
}

#: Host cost of the observed passes in timed cells (measured: cProfile
#: 3x, tracemalloc 2.5x); used only to bound a run's time.
PASS_COST = {"timed": 1.0, "profile": 3.0, "memory": 2.5}

# `repro` is a namespace package (no __file__); cow.py sits at its root.
_PACKAGE_ROOT = os.path.dirname(repro.cow.__file__) + os.sep


class Overrun(RuntimeError):
    """A workload ran past three times its sizing time."""


@dataclasses.dataclass
class Task:
    workload: Workload
    kind: str  # a key of PASS_COST
    subseed: int


@dataclasses.dataclass
class Passes:
    """What one workload's passes produced."""

    workload: Workload
    timed: list[Cell] = dataclasses.field(default_factory=list)
    profile: Cell | None = None
    profile_stats: list = dataclasses.field(default_factory=list)
    memory: Cell | None = None
    peak_bytes: int = 0
    calibration: list[float] = dataclasses.field(default_factory=list)
    elapsed: float = 0.0


def plan(workload: Workload, seed: int, cells: int,
         kinds: tuple[str, ...]) -> list[Task]:
    """The workload's tasks in running order."""
    subseeds = [seed * 100 + index for index in range(cells)]
    tasks = [Task(workload, "timed", subseed) for subseed in subseeds]
    middle = (cells + 1) // 2
    if "profile" in kinds:
        tasks.insert(middle, Task(workload, "profile", subseeds[0]))
    if "memory" in kinds:
        tasks.append(Task(workload, "memory", subseeds[0]))
    return tasks


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop: the machine's speed
    right now, independent of the program under test."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for index in range(60_000):
        table[index & 1023] = index
        total += table[(index * 31) & 1023 if index > 1023 else 0]
    return time.perf_counter() - start


def run_passes(plans: list[list[Task]],
               scale: float = 1.0) -> dict[str, Passes]:
    """Run every task, workloads interleaved round-robin so a noisy
    minute hits all of them; one process, one thread."""
    results = {tasks[0].workload.name: Passes(tasks[0].workload)
               for tasks in plans}
    budgets = {
        tasks[0].workload.name: 3.0 * tasks[0].workload.sizing_cell_s
        * max(scale, 0.1)
        * sum(PASS_COST[task.kind] for task in tasks)
        for tasks in plans}
    schedule = [task for row in itertools.zip_longest(*plans)
                for task in row if task is not None]
    for task in schedule:
        passes = results[task.workload.name]
        gc.collect()
        passes.calibration.append(calibrate())
        start = time.perf_counter()
        if task.kind == "timed":
            passes.timed.append(
                run_cell(task.workload, task.subseed, scale))
        elif task.kind == "profile":
            profiler = cProfile.Profile(subcalls=False, builtins=False)
            passes.profile = run_cell(task.workload, task.subseed,
                                      scale, profiler=profiler)
            passes.profile_stats = profiler.getstats()
        else:
            tracemalloc.start()
            try:
                passes.memory = run_cell(task.workload, task.subseed,
                                         scale)
                passes.peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        passes.elapsed += time.perf_counter() - start
        if passes.elapsed > budgets[task.workload.name]:
            raise Overrun(
                f"{task.workload.name}: {passes.elapsed:.1f} s is past "
                f"3x its sizing time "
                f"({budgets[task.workload.name]:.1f} s)")
    return results


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _timed(values: list[float], better: str) -> dict:
    """A host timing: the fastest cell, with the sample beside it.

    ``floor_gap`` is how far the runner-up is from the fastest cell:
    a wide gap means the floor was seen once and may not be one."""
    ordered = sorted(values, reverse=(better == "higher"))
    gap = abs(ordered[1] - ordered[0]) / ordered[0] \
        if len(ordered) > 1 else 0.0
    quartiles = (statistics.quantiles(values, n=4)
                 if len(values) > 1 else [values[0]] * 3)
    return {"value": ordered[0], "samples": len(values),
            "median": quartiles[1], "q1": quartiles[0],
            "q3": quartiles[2], "floor_gap": gap}


def layer_of(filename: str) -> str:
    if not filename.startswith(_PACKAGE_ROOT):
        return "other"
    parts = filename[len(_PACKAGE_ROOT):].split(os.sep)
    name = parts[0].removesuffix(".py")
    if name == "core" and len(parts) > 1:
        name = "core." + parts[1].removesuffix(".py")
    return name if name in LAYERS else "other"


def fold_profile(stats: list) -> tuple[dict[str, float],
                                       dict[str, int], dict]:
    """Self seconds and primitive calls per layer, plus the table
    keyed by code object for the target look-ups."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_code = {}
    for entry in stats:
        # builtins=False: every entry is a Python function; the time
        # of the C calls it makes is part of its own self time.
        layer = layer_of(entry.code.co_filename)
        seconds[layer] += entry.inlinetime
        primitive = entry.callcount - entry.reccallcount
        calls[layer] += primitive
        by_code[entry.code] = primitive
    return seconds, calls, by_code


def _target_code(path: str):
    """The code object ``module:Qualified.name`` names, or None when
    the program no longer has it."""
    module_name, _, qualified = path.partition(":")
    try:
        target = importlib.import_module(module_name)
        for part in qualified.split("."):
            target = getattr(target, part)
        return target.__code__
    except (ImportError, AttributeError):
        return None


def _mean(cells: list[Cell], read) -> float:
    return sum(read(cell) for cell in cells) / len(cells)


def _profile_metrics(passes: Passes, layer: dict,
                     problems: list[str]) -> float:
    """Fill in the per-layer split of the profile pass; returns the
    Python calls per committed transaction."""
    seconds, calls, by_code = fold_profile(passes.profile_stats)
    total_seconds = sum(seconds.values())
    per_tx = 1.0 / max(passes.profile.committed, 1)
    for name in LAYERS:
        layer[f"{name}.self_share"] = seconds[name] / total_seconds
        layer[f"{name}.calls_per_tx"] = calls[name] * per_tx
    for metric, path in PROFILE_TARGETS.items():
        code = _target_code(path)
        if code is None:
            problems.append(f"{metric}: {path} not found")
            layer[metric] = None
        else:
            layer[metric] = by_code.get(code, 0) * per_tx
    return sum(calls.values()) * per_tx


def summarise(passes: Passes) -> dict:
    """Every metric of one workload, its counts and its verdict."""
    workload = passes.workload
    timed = passes.timed
    problems: list[str] = []
    committed = sum(cell.committed for cell in timed)
    attempted = sum(cell.attempted for cell in timed)
    failed = sum(cell.failed for cell in timed)
    if committed == 0:
        problems.append("no transaction committed")
    first = timed[0]

    latencies: dict[str, list[float]] = {}
    for cell in timed:
        for operation, samples in cell.latencies.items():
            latencies.setdefault(operation, []).extend(samples)
    checkout = latencies.get("checkout", [])
    if not checkout:
        problems.append("no checkout was recorded")

    def latency_ms(operation: str, q: float) -> float:
        return 1000.0 * percentile(latencies.get(operation, []), q)

    end_to_end: dict[str, dict] = {
        "setup_s": _timed([cell.setup_s for cell in timed], "lower"),
        "host_tx_per_s": _timed(
            [cell.committed / cell.run_s for cell in timed], "higher"),
        "sim_tx_per_s": {
            "value": committed / sum(cell.window_s for cell in timed)},
        # The mean, not the median: statefun's checkout latency has
        # atoms, and a median sitting on one reads identically for
        # most seeds (op.checkout.p50_ms keeps it as a layer metric).
        "sim_checkout_mean_ms": {
            "value": 1000.0 * sum(checkout) / max(len(checkout), 1),
            "samples": len(checkout)},
        "sim_checkout_p90_ms": {"value": latency_ms("checkout", 90),
                                "samples": len(checkout)},
    }
    layer: dict[str, float | None] = {}

    if passes.profile is not None:
        if passes.profile.payload != first.payload:
            problems.append("profiling changed sub-seed 0's payload")
        end_to_end["host_calls_per_tx"] = {
            "value": _profile_metrics(passes, layer, problems)}
        layer["trace.overhead_x"] = passes.profile.run_s / first.run_s
    if passes.memory is not None:
        if passes.memory.payload != first.payload:
            problems.append("tracemalloc changed sub-seed 0's payload")
        layer["host.peak_mem_mb"] = passes.peak_bytes / 2 ** 20

    # -- counters of the timed pass ------------------------------------
    per_tx = 1.0 / max(committed, 1)
    actor_stack = "messages_sent" in first.runtime
    messages = sum(cell.messages for cell in timed) * per_tx
    layer["runtime.events_per_tx"] = \
        sum(cell.events for cell in timed) * per_tx
    layer["runtime.events_per_host_s"] = max(
        cell.events / cell.run_s for cell in timed)
    layer["runtime.pool_hit_rate"] = (
        sum(cell.pool_hits for cell in timed)
        / max(sum(cell.pool_acquires for cell in timed), 1))
    layer["actors.messages_per_tx"] = messages if actor_stack else 0.0
    layer["dataflow.messages_per_tx"] = 0.0 if actor_stack else messages
    for name in ("activations", "evictions", "reloads"):
        layer[f"actors.{name}"] = _mean(
            timed, lambda cell: cell.runtime["working_set"][name]
        ) if actor_stack else 0.0
    layer["actors.peak_resident"] = max(
        cell.runtime["working_set"]["peak_resident"]
        for cell in timed) if actor_stack else 0
    layer["actors.utilisation_max"] = max(
        (value for cell in timed
         for value in cell.runtime.get("utilisation", {}).values()),
        default=0.0)
    txn = [cell.runtime.get("transactions", {}) for cell in timed]
    for name in ("started", "committed", "retries", "wait_die_deaths"):
        layer[f"txn.{name}"] = \
            sum(stats.get(name, 0) for stats in txn) / len(timed)
    layer["txn.commit_ratio"] = (
        sum(stats.get("committed", 0) for stats in txn)
        / max(sum(stats.get("started", 0) for stats in txn), 1))
    for metric, key in (("dataflow.checkpoints", "checkpoints"),
                        ("dataflow.recoveries", "recoveries"),
                        ("kvstore.causal_waits", "kv_causal_waits"),
                        ("kvstore.stale_reads", "kv_stale_reads"),
                        ("sqlstore.committed", "sql_committed")):
        layer[metric] = _mean(
            timed, lambda cell: cell.runtime.get(key, 0))
    for metric, step in (("apps.build_s", "apps.build"),
                         ("apps.ingest_s", "apps.ingest"),
                         ("core.workload.build_s", "core.build_driver"),
                         ("core.criteria.audit_s", "core.criteria.audit"),
                         ("core.matrix.payload_s", "core.matrix.payload")):
        layer[metric] = min(cell.seconds(step) for cell in timed)
    layer["core.workload.touched"] = _mean(
        timed, lambda cell: cell.touched)
    layer["core.driver.run_s"] = min(cell.run_s for cell in timed)
    layer["core.driver.arrivals"] = _mean(
        timed, lambda cell: cell.open_loop.get("arrivals", 0))
    layer["core.driver.max_queue"] = max(
        cell.open_loop.get("max_queue", 0) for cell in timed)
    final_queue = max(cell.open_loop.get("final_queue", 0)
                      for cell in timed)
    shed = sum(cell.open_loop.get("shed", 0) for cell in timed)
    layer["core.driver.final_queue"] = final_queue
    layer["core.driver.shed"] = shed
    queue = StreamingHistogram()
    for cell in timed:
        for histogram in cell.queue_delays.values():
            queue.merge(histogram)
    # Arrivals are simulated-time events, so the generator cannot run
    # late; what an arrival can do is wait for a dispatcher.
    layer["core.driver.queue_delay_p95_ms"] = \
        1000.0 * queue.percentile(95)
    layer["core.criteria.violations"] = _mean(
        timed, lambda cell: sum(cell.violations.values()))
    for operation in OPERATIONS:
        layer[f"op.{operation}.p50_ms"] = latency_ms(operation, 50)
        layer[f"op.{operation}.p99_ms"] = latency_ms(operation, 99)
    layer["op.checkout.samples"] = len(checkout)
    layer["host.calib_ms"] = 1000.0 * min(passes.calibration)
    layer["host.calib_spread"] = _spread(passes.calibration)

    # -- correctness ----------------------------------------------------
    for cell in timed:
        for criterion in workload.criteria:
            if cell.violations.get(criterion, 0):
                problems.append(
                    f"{criterion}: {cell.violations[criterion]} "
                    f"violations at sub-seed {cell.subseed}")
    if workload.under_capacity and (final_queue or shed):
        problems.append(
            f"over capacity: final_queue={final_queue} shed={shed}")

    return {
        "cells": len(timed),
        "subseeds": [cell.subseed for cell in timed],
        "payload": first.payload,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "correct": not problems,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": layer,
    }


def chrome_trace(results: dict[str, Passes]) -> dict:
    """The profile passes' steps as Chrome-trace JSON (Perfetto opens
    it); a span's ``args`` carry its parent and ``workload/cell`` id."""
    events = []
    for row, (name, passes) in enumerate(results.items()):
        if passes.profile is None:
            continue
        events.append({"ph": "M", "pid": 1, "tid": row,
                       "name": "thread_name", "args": {"name": name}})
        origin = min(start for _, _, start, _ in passes.profile.steps)
        for step, parent, start, end in passes.profile.steps:
            events.append({
                "ph": "X", "pid": 1, "tid": row, "name": step,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent,
                         "id": f"{name}/{passes.profile.subseed}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}

"""The experiment matrix: spec, expansion and process-parallel runner.

The paper's contribution is a *comparison surface* — one marketplace
workload replayed across four platform stacks under identical
scenarios.  One cell of that surface is a single deterministic run:
``(scenario, app, seed, rate_scale)`` at a common ``duration_scale``.
This module turns the surface into data and machinery:

:class:`MatrixSpec`
    The declarative cross product (scenarios × apps × seeds ×
    rate-scales), validated against the scenario catalogue and the app
    registry, expanded by :meth:`MatrixSpec.cells` in a fixed,
    reproducible order.

:func:`run_cell`
    Executes one cell end to end (fresh :class:`Environment` seeded
    from the cell, scenario-pinned cluster shape, criteria audit,
    availability summary for fault scenarios) and returns a
    :class:`CellResult` whose ``payload`` is *canonical*: pure
    simulated-time data, no wall-clock, so the same cell always
    serialises to the same bytes (:attr:`CellResult.canonical_json`)
    no matter where or when it ran.

:func:`run_matrix`
    Fans cells across worker processes.  Runs are deterministic and
    share nothing, so the matrix is embarrassingly parallel: each cell
    gets its own short-lived process (fork where available, spawn
    otherwise), progress events stream back to the parent as cells
    start and finish, and a cell that *crashes its process outright*
    (not just raises — raises are caught in the worker) is recorded as
    ``crashed`` without taking the rest of the matrix down.
    ``workers=1`` runs the same cells in-process, which is both the
    fair baseline for the speedup benchmark and the reference output
    for the bit-identical determinism guarantee.

The merge/rendering side (cross-app tables keyed by scenario,
seed-sweep error bars) lives in :mod:`repro.analysis.matrix_report`.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import multiprocessing
import queue as queue_module
import time
import traceback
import typing

from repro.analysis.availability import availability_report
from repro.analysis.elasticity import elasticity_report
from repro.apps import ALL_APPS
from repro.control.facade import run_scenario
from repro.core.scenarios import get_scenario, scenario_names

#: Seconds between liveness sweeps of the worker pool.
_POLL_INTERVAL = 0.05


@dataclasses.dataclass(frozen=True)
class MatrixCell:
    """One point of the comparison surface: a single deterministic run."""

    scenario: str
    app: str
    seed: int
    rate_scale: float = 1.0
    duration_scale: float = 1.0

    @property
    def cell_id(self) -> str:
        """Stable human-readable key, e.g. ``baseline/statefun/s42/r1``."""
        return (f"{self.scenario}/{self.app}/s{self.seed}"
                f"/r{self.rate_scale:g}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class MatrixSpec:
    """The declarative cross product defining an experiment matrix.

    Every axis is validated eagerly (unknown scenario/app names and
    non-positive scales fail at construction, not mid-run) and the
    expansion order is fixed — scenarios, then apps, then seeds, then
    rate scales — so cell indices are reproducible across runs and
    machines.
    """

    scenarios: tuple[str, ...]
    apps: tuple[str, ...]
    seeds: tuple[int, ...] = (42,)
    rate_scales: tuple[float, ...] = (1.0,)
    duration_scale: float = 1.0

    def __post_init__(self) -> None:
        # Accept any sequence on every axis; store tuples (hashable,
        # immutable) so the spec itself stays frozen.
        for axis in ("scenarios", "apps", "seeds", "rate_scales"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if not self.scenarios or not self.apps:
            raise ValueError("matrix needs at least one scenario "
                             "and one app")
        if not self.seeds or not self.rate_scales:
            raise ValueError("matrix needs at least one seed "
                             "and one rate scale")
        for name in self.scenarios:
            get_scenario(name)  # raises KeyError listing known names
        for name in self.apps:
            if name not in ALL_APPS:
                known = ", ".join(sorted(ALL_APPS))
                raise ValueError(f"unknown app {name!r}; known: {known}")
        if any(scale <= 0 for scale in self.rate_scales) \
                or self.duration_scale <= 0:
            raise ValueError("scales must be > 0")

    @classmethod
    def full(cls, **overrides) -> "MatrixSpec":
        """The whole catalogue: every scenario × every app."""
        overrides.setdefault("scenarios", tuple(scenario_names()))
        overrides.setdefault("apps", tuple(sorted(ALL_APPS)))
        return cls(**overrides)

    def cells(self) -> list[MatrixCell]:
        """Expand the cross product in the fixed canonical order."""
        return [
            MatrixCell(scenario=scenario, app=app, seed=seed,
                       rate_scale=rate_scale,
                       duration_scale=self.duration_scale)
            for scenario in self.scenarios
            for app in self.apps
            for seed in self.seeds
            for rate_scale in self.rate_scales
        ]

    def __len__(self) -> int:
        return (len(self.scenarios) * len(self.apps) * len(self.seeds)
                * len(self.rate_scales))


@dataclasses.dataclass
class CellResult:
    """Outcome of one cell: status, wall time and canonical payload.

    ``status`` is one of ``ok`` (payload present), ``failed`` (the run
    raised inside the worker; ``error`` carries the traceback tail) or
    ``crashed`` (the worker process died without reporting; ``error``
    carries the exit code).  Wall time lives *outside* the payload so
    canonical output stays byte-identical across machines and worker
    counts.
    """

    cell: MatrixCell
    status: str
    wall_s: float
    payload: dict | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def canonical_json(self) -> str:
        """Deterministic serialisation of the simulated-time payload.

        Sorted keys, no whitespace, no wall-clock fields: two runs of
        the same cell — serial or parallel, any machine — produce the
        same string.  This is the equality the determinism tests
        assert on; the perf ledger (``benchmarks/ledger``) hashes it,
        and the payload goldens (``tests/golden_payloads.json``) hash
        the same serialisation."""
        return json.dumps(self.payload, sort_keys=True,
                          separators=(",", ":"))

    def as_dict(self) -> dict:
        return {"cell": self.cell.as_dict(), "status": self.status,
                "wall_s": round(self.wall_s, 4), "error": self.error,
                "payload": self.payload}


@dataclasses.dataclass(frozen=True)
class MatrixProgress:
    """One streamed progress event: a cell started or finished."""

    kind: str  # "start" | "done"
    cell: MatrixCell
    index: int
    total: int
    result: CellResult | None = None


@dataclasses.dataclass
class MatrixResult:
    """All cell results (in spec order) plus run-level bookkeeping."""

    cells: list[CellResult]
    workers: int
    wall_s: float

    @property
    def completed(self) -> list[CellResult]:
        return [result for result in self.cells if result.ok]

    @property
    def failures(self) -> list[CellResult]:
        return [result for result in self.cells if not result.ok]

    def as_dict(self) -> dict:
        return {"workers": self.workers,
                "wall_s": round(self.wall_s, 4),
                "ok": len(self.completed),
                "failed": len(self.failures),
                "cells": [result.as_dict() for result in self.cells]}


def cell_payload(cell: MatrixCell, metrics, report, app=None) -> dict:
    """The canonical (wall-clock-free) record of one finished cell.

    Everything here is simulated-time data derived deterministically
    from the seed: per-operation rows, open-loop counters, the
    criteria audit and — for fault scenarios — the availability
    summary.  Keep wall-clock measurements out; they belong on
    :class:`CellResult`.  When ``app`` is given, a ``memory`` section
    records the *logical* footprint — dataset records touched plus the
    working-set counters — which is still pure simulated-time data
    (actual byte counts are machine-dependent and live in the
    benchmarks, not here).
    """
    memory = None
    if app is not None:
        dataset = getattr(app, "dataset", None)
        memory = {
            "dataset": dataset.summary() if dataset is not None else None,
            "working_set": app.runtime_stats().get("working_set"),
        }
    open_loop = {
        key: (round(value, 3) if isinstance(value, float) else value)
        for key, value in metrics.open_loop.items()
        if key in ("arrivals", "completed", "shed", "offered_rate",
                   "max_in_flight", "max_queue", "final_queue")
    }
    availability = None
    if metrics.open_loop.get("fault_events"):
        summary = availability_report(metrics)
        availability = {
            "fault_second": summary.fault_second,
            "pre_fault_tps": round(summary.pre_fault_tps, 3),
            "unavailable_seconds": summary.unavailable_seconds,
            "window": summary.unavailability_window,
            "recovery_time": summary.recovery_time,
            "state_loss_events": summary.state_loss_events,
            "reroutes": summary.reroutes,
        }
    elasticity = None
    if metrics.open_loop.get("control"):
        story = elasticity_report(metrics.open_loop["control"],
                                  app=cell.app)
        if story is not None:
            elasticity = {
                "enabled": story.enabled,
                "slo_violation_seconds":
                    round(story.slo_violation_seconds, 3),
                "scaling_lag": (round(story.scaling_lag, 3)
                                if story.scaling_lag is not None
                                else None),
                "recovery_time": (round(story.recovery_time, 3)
                                  if story.recovery_time is not None
                                  else None),
                "recovered": story.recovered,
                "over_provisioned_area":
                    round(story.over_provisioned_area, 3),
                "under_provisioned_area":
                    round(story.under_provisioned_area, 3),
                "silo_seconds": round(story.silo_seconds, 3),
                "ideal_silo_seconds":
                    round(story.ideal_silo_seconds, 3),
                "peak_silos": story.peak_silos,
                "min_silos": story.min_silos,
                "scale_ups": story.scale_ups,
                "scale_downs": story.scale_downs,
            }
    return {
        "cell": cell.as_dict(),
        "duration": metrics.duration,
        "total_tps": round(metrics.total_throughput, 3),
        "ops": metrics.summary_rows(),
        "open_loop": open_loop,
        "criteria": {
            name: {"passed": result.passed,
                   "violations": result.violations,
                   "checked": result.checked}
            for name, result in sorted(report.results.items())
        },
        "availability": availability,
        "elasticity": elasticity,
        "memory": memory,
    }


def run_cell(cell: MatrixCell) -> CellResult:
    """Execute one cell in the current process.

    The run itself goes through :func:`repro.control.run_scenario` —
    the one canonical environment/app/driver assembly — so a cell run
    here is byte-identical to the same scenario run from the CLI.  A
    raising run is converted to a ``failed`` result (traceback tail in
    ``error``) so one poisoned cell never aborts a matrix, serial or
    parallel.
    """
    start = time.perf_counter()
    try:
        run = run_scenario(cell.scenario, app=cell.app, seed=cell.seed,
                           rate_scale=cell.rate_scale,
                           duration_scale=cell.duration_scale)
        payload = cell_payload(cell, run.metrics, run.report,
                               app=run.app)
    except Exception as error:  # noqa: BLE001 - recorded, not fatal
        tail = traceback.format_exception_only(type(error), error)
        return CellResult(cell=cell, status="failed",
                          wall_s=time.perf_counter() - start,
                          error="".join(tail).strip())
    return CellResult(cell=cell, status="ok",
                      wall_s=time.perf_counter() - start,
                      payload=payload)


def _guarded(cell_fn: typing.Callable[[MatrixCell], CellResult],
             cell: MatrixCell) -> CellResult:
    """Run ``cell_fn`` converting a raise into a ``failed`` result."""
    start = time.perf_counter()
    try:
        return cell_fn(cell)
    except Exception as error:  # noqa: BLE001 - recorded, not fatal
        tail = traceback.format_exception_only(type(error), error)
        return CellResult(cell=cell, status="failed",
                          wall_s=time.perf_counter() - start,
                          error="".join(tail).strip())


def _cell_worker(index: int, cell: MatrixCell, cell_fn, results) -> None:
    """Worker-process entry: run one cell, ship the result back."""
    results.put((index, _guarded(cell_fn, cell)))


def default_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform offers it (cheap start, inherits the
    imported simulator), spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context("spawn")


def run_matrix(spec: "MatrixSpec | typing.Sequence[MatrixCell]",
               workers: int = 1,
               progress: typing.Callable[[MatrixProgress], None]
               | None = None,
               cell_fn: typing.Callable[[MatrixCell], CellResult]
               | None = None,
               context: multiprocessing.context.BaseContext
               | None = None) -> MatrixResult:
    """Run every cell of ``spec``; returns results in spec order.

    ``workers=1`` executes in-process (the serial baseline);
    ``workers>1`` gives each cell its own short-lived process, at most
    ``workers`` alive at once.  ``progress`` receives a
    :class:`MatrixProgress` as each cell starts and finishes.
    ``cell_fn`` (default :func:`run_cell`) exists for tests — e.g.
    injecting a cell that kills its worker process.
    """
    cells = list(spec.cells() if isinstance(spec, MatrixSpec) else spec)
    if workers < 1:
        raise ValueError("need at least one worker")
    cell_fn = cell_fn or run_cell
    total = len(cells)
    start = time.perf_counter()
    if workers == 1 or total <= 1:
        results = []
        for index, cell in enumerate(cells):
            _emit(progress, MatrixProgress("start", cell, index, total))
            result = _guarded(cell_fn, cell)
            results.append(result)
            _emit(progress, MatrixProgress("done", cell, index, total,
                                           result))
    else:
        results = _run_pool(cells, workers, progress, cell_fn,
                            context or default_context())
    return MatrixResult(cells=results, workers=workers,
                        wall_s=time.perf_counter() - start)


def _emit(progress, event: MatrixProgress) -> None:
    if progress is not None:
        progress(event)


def _run_pool(cells: list[MatrixCell], workers: int, progress,
              cell_fn, context) -> list[CellResult]:
    """One short-lived process per cell, at most ``workers`` alive.

    Results come back over a queue; a worker that dies without
    reporting (hard crash, ``os._exit``, signal) is detected by its
    exit code and recorded as a ``crashed`` cell — the rest of the
    matrix keeps running.
    """
    total = len(cells)
    results_queue = context.Queue()
    pending = collections.deque(enumerate(cells))
    # index -> (process, cell, started-at); insertion order is launch
    # order, which keeps crash sweeps deterministic.
    running: dict[int, tuple] = {}
    results: dict[int, CellResult] = {}

    while pending or running:
        while pending and len(running) < workers:
            index, cell = pending.popleft()
            process = context.Process(
                target=_cell_worker,
                args=(index, cell, cell_fn, results_queue),
                name=f"matrix-{cell.cell_id}", daemon=True)
            process.start()
            running[index] = (process, cell, time.perf_counter())
            _emit(progress, MatrixProgress("start", cell, index, total))
        try:
            index, result = results_queue.get(timeout=_POLL_INTERVAL)
        except queue_module.Empty:
            pass
        else:
            process, cell, _ = running.pop(index)
            process.join()
            results[index] = result
            _emit(progress, MatrixProgress("done", cell, index, total,
                                           result))
            continue
        # Liveness sweep: a dead worker with a non-zero exit code and
        # no result in the queue crashed mid-cell.  (Exit code 0 means
        # the result is still in flight — keep draining the queue.)
        for index in list(running):
            process, cell, started = running[index]
            if process.exitcode is None or process.exitcode == 0 \
                    or index in results:
                continue
            running.pop(index)
            process.join()  # already dead; reap it
            result = CellResult(
                cell=cell, status="crashed",
                wall_s=time.perf_counter() - started,
                error=f"worker process exited with code "
                      f"{process.exitcode}")
            results[index] = result
            _emit(progress, MatrixProgress("done", cell, index, total,
                                           result))
    results_queue.close()
    return [results[index] for index in range(total)]

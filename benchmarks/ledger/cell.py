"""One ledger cell: assemble, run and audit one simulation, timing
every call the benchmark makes into a layer.

The program under test is measured from outside only: the steps are
calls into public functions (``Environment``, ``ALL_APPS[...]``, the
driver constructors, ``driver.run``, ``app.ingest``, ``audit_app``,
``cell_payload``) and the counters are public attributes.  Each step's
start and end are kept, so the same record serves the timed pass (as
per-step host seconds) and the traced pass (as spans).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

from repro.apps import ALL_APPS
from repro.core import CellResult, MatrixCell, audit_app
from repro.core.matrix import cell_payload
from repro.runtime import Environment

from workloads import Workload

#: (name, parent, start, end) of one call into a layer; times are
#: ``time.perf_counter`` readings.
Step = tuple[str, str, float, float]


@dataclasses.dataclass
class Cell:
    """Everything one cell produced that the ledger reads."""

    subseed: int
    steps: list[Step]
    #: Hash of the cell's canonical (wall-clock-free) payload: equal
    #: hashes mean every simulated statistic is identical.
    payload: str
    attempted: int
    committed: int
    failed: int
    #: Simulated seconds of the measured window.
    window_s: float
    #: Raw simulated service latencies per operation (seconds).
    latencies: dict[str, list[float]]
    #: Open-loop queueing-delay histograms per operation.
    queue_delays: dict
    events: int
    pool_acquires: int
    pool_hits: int
    #: Substrate messages handled (``platform_stats().messages``).
    messages: int
    runtime: dict
    open_loop: dict
    violations: dict[str, int]
    touched: int

    def seconds(self, name: str) -> float:
        return sum(end - start
                   for step, _, start, end in self.steps if step == name)

    @property
    def run_s(self) -> float:
        """Host seconds inside ``driver.run()``, ingestion excluded."""
        return self.seconds("core.driver.run") - self.seconds(
            "apps.ingest")

    @property
    def setup_s(self) -> float:
        """Host seconds before the simulation can start."""
        return sum(map(self.seconds, (
            "runtime.env_init", "apps.build", "core.build_driver",
            "apps.ingest")))


def run_cell(workload: Workload, subseed: int, scale: float = 1.0,
             profiler=None) -> Cell:
    """Run one cell of ``workload``; ``profiler`` (a ``cProfile.
    Profile``) is enabled for ``driver.run()`` only, minus ingestion."""
    clock = time.perf_counter
    steps: list[Step] = []

    def step(name, parent, function, *args, **kwargs):
        start = clock()
        result = function(*args, **kwargs)
        steps.append((name, parent, start, clock()))
        return result

    cell_start = clock()
    env = step("runtime.env_init", "cell", Environment, seed=subseed)
    app = step("apps.build", "cell", ALL_APPS[workload.app], env,
               workload.app_config())
    driver = step("core.build_driver", "cell", workload.build_driver,
                  env, app, subseed, scale)
    # Raw samples give exact percentiles; the default histograms
    # quantise to 4 % buckets, which would hide small latency moves.
    driver.recorder.raw_samples = True

    ingest = app.ingest

    def timed_ingest(dataset):
        # The driver ingests inside run(); it is set-up, so it gets
        # its own step and stays out of the profile.
        if profiler is not None:
            profiler.disable()
        step("apps.ingest", "core.driver.run", ingest, dataset)
        if profiler is not None:
            profiler.enable()

    app.ingest = timed_ingest
    if profiler is not None:
        profiler.enable()
    try:
        metrics = step("core.driver.run", "cell", driver.run)
    finally:
        if profiler is not None:
            profiler.disable()
    report = step("core.criteria.audit", "cell", audit_app, app, driver)
    matrix_cell = MatrixCell(
        scenario=workload.name, app=workload.app, seed=subseed,
        duration_scale=scale * workload.duration_scale)
    payload = step("core.matrix.payload", "cell", cell_payload,
                   matrix_cell, metrics, report, app)
    steps.append(("cell", "", cell_start, clock()))

    canonical = CellResult(matrix_cell, "ok", 0.0, payload).canonical_json
    summary = driver.dataset.summary()
    return Cell(
        subseed=subseed, steps=steps,
        payload=hashlib.blake2b(canonical.encode(),
                                digest_size=8).hexdigest(),
        attempted=sum(op.count for op in metrics.ops.values()),
        committed=sum(op.ok for op in metrics.ops.values()),
        failed=sum(op.failed for op in metrics.ops.values()),
        window_s=metrics.duration,
        latencies=driver.recorder.latencies,
        queue_delays=driver.recorder.queue_delays,
        events=env.events_processed,
        pool_acquires=env.pool_acquires, pool_hits=env.pool_hits,
        messages=app.platform_stats().messages,
        runtime=metrics.runtime, open_loop=metrics.open_loop,
        violations={name: result.violations
                    for name, result in report.results.items()},
        touched=summary.get("touched_products", summary["products"]))

"""The six ledger workloads: which stack, which traffic, why.

A workload is one *cell shape* — app stack, cluster shape, traffic —
plus the host seconds one cell cost on the sizing box.  Cells differ
only by sub-seed, so a run is a fixed amount of work: the number of
timed cells is derived from ``--seconds`` and ``sizing_cell_s`` (both
constants), never from a clock, and every count repeats exactly.

Four workloads replay the catalogue's open-loop ``baseline`` schedule
in the assembly order of ``repro.control.run_scenario`` (environment,
app with the scenario-pinned ``AppConfig``, ``Scenario.build_driver``).
The assembly is spelled out here instead of calling ``run_scenario``
because the ledger times every step on its own.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.apps import AppConfig
from repro.core import (
    BenchmarkDriver,
    DriverConfig,
    TransactionMix,
    WorkloadConfig,
    get_scenario,
)

#: Fewest timed cells a workload may run (a median needs three).
MIN_CELLS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    app: str
    #: Catalogue scenario replayed open loop, or None for the
    #: closed-loop cell built by :func:`_peak_driver`.
    scenario: str | None
    duration_scale: float
    #: Host seconds of one cell on the sizing box (2 shared cores).
    sizing_cell_s: float
    activation_limit: int | None = None
    #: Whether the arrival queue must be empty at the end (open-loop
    #: workloads run under capacity; a backlog voids sim latencies).
    under_capacity: bool = True
    #: Criteria that must report zero violations on this stack.
    criteria: tuple[str, ...] = ("C1-atomicity", "C3-integrity")

    def cells_for(self, seconds: float) -> int:
        """Timed cells that fill about ``seconds`` on the sizing box."""
        return max(MIN_CELLS, round(seconds / self.sizing_cell_s))

    def app_config(self) -> AppConfig:
        if self.scenario is None:
            return AppConfig(silos=2, cores_per_silo=2)
        scenario = get_scenario(self.scenario)
        limit = (self.activation_limit
                 if self.activation_limit is not None
                 else scenario.activation_limit)
        return AppConfig(silos=scenario.effective_silos,
                         cores_per_silo=scenario.effective_cores,
                         approval_rate=scenario.approval_rate,
                         drop_probability=scenario.drop_probability,
                         activation_limit=limit)

    def build_driver(self, env, app, subseed: int, scale: float):
        """The ready-to-run driver; generates the dataset."""
        scale *= self.duration_scale
        if self.scenario is None:
            return _peak_driver(env, app, subseed, scale)
        return get_scenario(self.scenario).build_driver(
            env, app, duration_scale=scale, data_seed=subseed)


def _peak_driver(env, app, subseed: int, scale: float):
    """Closed loop, 8 workers, heavy-writer mix on a hot catalogue:
    writes beside reads under contention, so offered load tracks what
    the stack can commit and throughput *is* the commit ceiling."""
    workload = WorkloadConfig(
        sellers=6, customers=64, products_per_seller=8, zipf_s=1.0,
        mix=TransactionMix(checkout=30.0, price_update=40.0,
                           product_delete=8.0, update_delivery=7.0,
                           dashboard=15.0))
    config = DriverConfig(workers=8, warmup=0.5 * scale,
                          duration=2.0 * scale, drain=1.0 * scale)
    return BenchmarkDriver(env, app, workload, config,
                           data_seed=subseed)


_STRICT = ("C1-atomicity", "C3-integrity", "C5-event-ordering")

WORKLOADS: typing.Mapping[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady-2pc",
        # Orleans-transactions on open-loop baseline traffic: the shape
        # `repro matrix` users run; txn, actors, runtime and cow are all
        # on the path.
        app="orleans-transactions", scenario="baseline",
        duration_scale=1.0, sizing_cell_s=1.75),
    Workload(
        name="steady-eventual",
        # Orleans-eventual on the same arrivals and dataset: bypasses txn
        # entirely, so a 2PC optimisation must predict no change here.
        app="orleans-eventual", scenario="baseline",
        duration_scale=1.0, sizing_cell_s=0.6),
    Workload(
        name="steady-dataflow",
        # Statefun on the same arrivals and dataset: bypasses actors and
        # txn; dataflow, broker and checkpoints do the work.
        app="statefun", scenario="baseline",
        duration_scale=1.0, sizing_cell_s=0.7, criteria=_STRICT),
    Workload(
        name="long-2pc",
        # Orleans-transactions on baseline at twice the length: state has
        # grown, cow and marketplace scans dominate, so a gain bought with
        # O(state) work shows as a loss.
        app="orleans-transactions", scenario="baseline",
        duration_scale=2.0, sizing_cell_s=4.5),
    Workload(
        name="peak-custom",
        # Customized-orleans, closed loop of 8 workers with a heavy-
        # writer mix on a hot catalogue: sim throughput is the 2PC commit
        # ceiling; txn retries, sqlstore and kvstore work only here.
        app="customized-orleans", scenario=None,
        duration_scale=1.0, sizing_cell_s=1.65,
        under_capacity=False, criteria=_STRICT),
    Workload(
        name="bigworld-eventual",
        # Orleans-eventual on the lazy million-keys catalogue with 500
        # activations per silo: the only working set larger than the
        # program's own cache, so the pager, lazy generation and
        # approximate Zipf are on the path.
        app="orleans-eventual", scenario="million-keys",
        duration_scale=1.0, sizing_cell_s=1.3,
        # At the catalogue's budget of 2000 a run evicts nothing and
        # the pager would be benchmarked idle.
        activation_limit=500),
)}

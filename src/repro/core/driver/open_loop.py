"""The open-loop benchmark driver: arrival-rate-controlled load.

Unlike the closed-loop driver, whose offered load is bounded by how
fast its workers get answers, the open-loop driver replays an
externally generated arrival schedule: every arrival enters a FIFO
queue and a bounded pool of dispatchers (modelling client connections)
issues the transactions.  Under overload the queue — not the system —
absorbs the excess, so the driver observes and reports *queueing
delay* (arrival to dispatch) separately from *service latency*
(dispatch to completion); their sum is the client-visible response
time.  This is the load shape needed for flash-sale, burst and
overload-ramp scenarios, where closed-loop coordination would hide
the very saturation being measured (coordinated omission).

Metrics are attributed by **arrival time**: a transaction arriving
inside the measured window is recorded on every channel (outcome,
service latency, queue delay, response) even when it completes during
the drain — dropping those late finishers would censor exactly the
worst-delayed transactions an overload experiment exists to observe.
The drain must therefore be long enough for the backlog to clear;
``final_queue`` in the open-loop stats reports any remainder.

``docs/metrics.md`` documents the metric semantics (histograms,
channels, timelines) in operator terms; ``docs/scenarios.md`` catalogues
the named arrival shapes built on this driver.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing

from repro.control.autoscaler import Autoscaler, AutoscalerConfig
from repro.control.faults import FaultSchedule
from repro.control.plane import ControlPlane
from repro.control.signals import SignalWindow
from repro.core.driver.arrivals import ArrivalProcess
from repro.core.driver.issuer import (
    RESULT_OPERATION,
    IssuerStateView,
    TransactionIssuer,
)
from repro.core.driver.metrics import LatencyRecorder, RunMetrics
from repro.core.workload.config import WorkloadConfig
from repro.core.workload.dataset import Dataset

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.runtime import Environment


@dataclasses.dataclass
class HotspotSpec:
    """A temporary skew spike: during ``[start, end)`` (relative to the
    start of the run) product sampling routes to the ``top_ranks`` most
    popular ranks with the given probability."""

    start: float
    end: float
    top_ranks: int = 3
    probability: float = 0.7

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("need 0 <= start < end")
        if self.top_ranks < 1:
            raise ValueError("need at least one hot rank")
        if not 0 < self.probability <= 1:
            raise ValueError("probability must be in (0, 1]")


@dataclasses.dataclass
class OpenLoopConfig:
    """Experiment-control parameters for rate-controlled load."""

    arrivals: ArrivalProcess
    #: Simulated seconds of warm-up (arrivals happen, not measured).
    warmup: float = 1.0
    #: Simulated seconds of the measured window.
    duration: float = 5.0
    #: Extra simulated seconds to let asynchronous effects quiesce.
    drain: float = 2.0
    #: Dispatcher-pool size: transactions concurrently in flight.
    max_in_flight: int = 64
    #: Pending-arrival queue bound; ``None`` = unbounded, otherwise
    #: arrivals beyond the bound are shed (counted, not issued).
    queue_capacity: int | None = None
    #: Optional flash-sale style skew spike.
    hotspot: HotspotSpec | None = None
    #: Optional timed membership faults (crash/drain/join), times
    #: relative to run start like the hotspot window.  Fired through
    #: the run's control plane at the app's ``scaling_host``; an app
    #: without one logs the events as skipped.
    faults: FaultSchedule | None = None
    #: Optional SLO-driven elasticity: with a config the driver builds
    #: a control plane over the app, feeds it live signals, and runs an
    #: :class:`~repro.control.autoscaler.Autoscaler` for the whole run.
    autoscaler: AutoscalerConfig | None = None

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.duration <= 0 or self.drain < 0:
            raise ValueError("invalid timing parameters")
        if self.max_in_flight < 1:
            raise ValueError("need at least one dispatcher")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 or None")


class OpenLoopDriver(IssuerStateView):
    """Drives one app through one arrival-schedule experiment."""

    def __init__(self, env: "Environment", app: "MarketplaceApp",
                 workload: WorkloadConfig | None = None,
                 config: OpenLoopConfig | None = None,
                 dataset: Dataset | None = None,
                 data_seed: int = 0) -> None:
        if config is None:
            raise ValueError("OpenLoopConfig (arrival schedule) required")
        self.env = env
        self.app = app
        self.workload = workload or WorkloadConfig()
        self.config = config
        self.dataset = dataset or Dataset(self.workload, seed=data_seed)
        self.recorder = LatencyRecorder()
        self.issuer = TransactionIssuer(env, app, self.workload,
                                        self.dataset, self.recorder)
        self._queue: collections.deque[tuple[float, str]] = \
            collections.deque()
        self._waiters: collections.deque = collections.deque()
        self._closed = False
        self._measure_start = 0.0
        self._deadline = 0.0
        self._in_flight = 0
        self._ingested = False
        #: Control-plane surface of this run (built in :meth:`run` when
        #: the config carries faults or an autoscaler).
        self.control: ControlPlane | None = None
        self.autoscaler: Autoscaler | None = None
        self._signals: SignalWindow | None = None
        self.stats = {"arrivals": 0, "dispatched": 0, "completed": 0,
                      "shed": 0, "max_in_flight": 0, "max_queue": 0}

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Execute the full experiment lifecycle; returns the metrics.

        Arrivals are generated over warm-up + measured window; the
        drain lets queued and in-flight transactions finish.
        """
        if not self._ingested:
            self.app.ingest(self.dataset)
            self._ingested = True
        start = self.env.now
        self._measure_start = start + self.config.warmup
        self._deadline = self._measure_start + self.config.duration
        # Per-arrival attribution: the dispatcher decides recording
        # from the arrival timestamp, so the issuer-side completion
        # gates stay open and the recorder is live from the start.
        self.issuer.record_until = float("inf")
        self.recorder.timeline_origin = self._measure_start
        self.recorder.enabled = True
        if self.config.faults is not None \
                or self.config.autoscaler is not None:
            # One control plane per run: the shared audit log for
            # scheduled faults and autoscaler actions, and the signal
            # surface the autoscaler samples.
            window = (SignalWindow(self.config.autoscaler.window)
                      if self.config.autoscaler is not None
                      else None)
            self.control = ControlPlane(self.env, self.app,
                                        driver=self, window=window)
        self.env.process(self._arrival_source(start), name="arrivals")
        for index in range(self.config.max_in_flight):
            self.env.process(self._dispatcher(), name=f"dispatch-{index}")
        if self.config.hotspot is not None:
            self.env.process(self._hotspot_controller(self.config.hotspot),
                             name="hotspot")
        if self.config.faults is not None:
            self.config.faults.install(self.env, self.control)
        if self.config.autoscaler is not None:
            # Live signal taps: arrivals and queue delays from the
            # dispatch path, completion outcomes from the issuer —
            # ungated by the measurement window, free of RNG use.
            self._signals = self.control.window
            self.issuer.tap = self.control.window
            self.autoscaler = Autoscaler(self.control,
                                         self.config.autoscaler)
            self.autoscaler.install(
                self.env, until=self._deadline + self.config.drain)
        self.env.run(until=self._deadline + self.config.drain)
        # Actual, not nominal: phased/ramped schedules may repeat or
        # hold their last phase when the window outruns them.
        window = self.config.warmup + self.config.duration
        open_loop = dict(self.stats,
                         offered_rate=self.stats["arrivals"] / window,
                         final_queue=len(self._queue))
        if self.config.faults is not None:
            open_loop["fault_events"] = [
                dict(entry,
                     second=math.floor(entry["time"]
                                       - self._measure_start))
                for entry in self.control.action_log
                if entry["source"] == "fault"]
        if self.autoscaler is not None:
            autoscale = self.config.autoscaler
            open_loop["control"] = {
                "slo": autoscale.slo.as_dict(),
                "enabled": autoscale.enabled,
                "interval": round(autoscale.interval, 6),
                "min_silos": autoscale.min_silos,
                "max_silos": autoscale.max_silos,
                "rate_per_silo": autoscale.rate_per_silo,
                "samples": list(self.autoscaler.samples),
                "actions": [dict(entry)
                            for entry in self.control.action_log],
            }
        return RunMetrics.from_recorder(
            self.app.name, self.config.max_in_flight,
            self.config.duration, self.recorder,
            runtime=self.app.runtime_stats(), open_loop=open_loop)

    def _hotspot_controller(self, spec: HotspotSpec):
        if spec.start > 0:
            yield self.env.timeout(spec.start)
        ranks = list(range(min(spec.top_ranks, self.sampler.n)))
        self.sampler.set_hotspot(ranks, spec.probability)
        yield self.env.timeout(spec.end - spec.start)
        self.sampler.clear_hotspot()

    # ------------------------------------------------------------------
    # arrivals and dispatch
    # ------------------------------------------------------------------
    def _arrival_source(self, start: float):
        end = start + self.config.warmup + self.config.duration
        rng = self.env.rng("open-loop-arrivals")
        previous = start
        for at in self.config.arrivals.arrival_times(rng, start, end):
            yield self.env.timeout(at - previous)
            previous = at
            self._on_arrival(at)
        self._closed = True
        while self._waiters:  # release idle dispatchers so they exit
            self._waiters.popleft().succeed()

    def _on_arrival(self, at: float) -> None:
        self.stats["arrivals"] += 1
        if self._signals is not None:
            self._signals.observe_arrival(at)
        capacity = self.config.queue_capacity
        if capacity is not None and len(self._queue) >= capacity:
            self.stats["shed"] += 1
            return
        self._queue.append((at, self.issuer.choose_operation()))
        self.stats["max_queue"] = max(self.stats["max_queue"],
                                      len(self._queue))
        if self._waiters:
            self._waiters.popleft().succeed()

    def _dispatcher(self):
        while True:
            while not self._queue:
                if self._closed:
                    return
                waiter = self.env.event()
                self._waiters.append(waiter)
                yield waiter
            arrived, operation = self._queue.popleft()
            queue_delay = self.env.now - arrived
            if self._signals is not None:
                self._signals.observe_queue_delay(self.env.now,
                                                  queue_delay)
            self._in_flight += 1
            self.stats["max_in_flight"] = max(
                self.stats["max_in_flight"], self._in_flight)
            self.stats["dispatched"] += 1
            # All channels gate on the arrival timestamp, so outcome,
            # service latency and queue wait describe one population:
            # transactions *arriving* inside the window.
            record = self._measure_start <= arrived <= self._deadline
            executed = yield from self.issuer.issue(operation,
                                                    record=record)
            self._in_flight -= 1
            self.stats["completed"] += 1
            # Queue wait uses the app-facing operation name so it
            # lands on the same rows as service latency.
            # Skipped transactions (lease miss, reserve dry) never
            # touched the app and contribute no samples.
            if executed and record:
                recorded = RESULT_OPERATION[operation]
                self.recorder.record_queue_delay(recorded, queue_delay)

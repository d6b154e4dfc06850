"""The control plane: one read/act surface over every platform stack.

A :class:`ControlPlane` pairs the two halves of reactive operations:

* **read** — :meth:`ControlPlane.signals` assembles a typed
  :class:`~repro.control.signals.RuntimeSignals` snapshot from the
  driver-side :class:`~repro.control.signals.SignalWindow` (queue-delay
  p95, error rate, offered rate) and the app-side
  ``platform_stats()`` contract (live/draining silos, working set);

* **act** — :meth:`ControlPlane.execute` dispatches typed
  :class:`~repro.control.actions.ControlAction` commands to the app's
  ``scaling_host`` and appends the audited record to
  :attr:`ControlPlane.action_log`.  Scheduled faults
  (:class:`repro.control.faults.FaultSchedule`) and the autoscaler are
  both issuers on this one path, so a run's membership history reads as
  a single sequence in sim-time order.

The host is what the app declares: the actor stacks scale their
:class:`~repro.actors.cluster.Cluster`, the dataflow stack rescales its
:class:`~repro.dataflow.runtime.StatefunRuntime`, and an app that
declares none (test stubs) has every action recorded as skipped.
"""

from __future__ import annotations

import typing

from repro.control.actions import ControlAction, DrainSilo, execute
from repro.control.signals import RuntimeSignals, SignalWindow

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.core.driver.open_loop import OpenLoopDriver
    from repro.runtime import Environment


class ControlPlane:
    """Read signals from, and issue membership actions to, one app."""

    def __init__(self, env: "Environment", app: "MarketplaceApp",
                 driver: "OpenLoopDriver | None" = None,
                 window: SignalWindow | None = None) -> None:
        self.env = env
        self.app = app
        self.driver = driver
        self.window = window or SignalWindow()
        #: Audited membership actions, in firing order, all sources.
        self.action_log: list[dict] = []

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def signals(self) -> RuntimeSignals:
        """A typed snapshot of load and cluster shape, right now."""
        now = self.env.now
        load = self.window.snapshot(now)
        platform = self.app.platform_stats()
        return RuntimeSignals(
            time=now,
            queue_length=(self.driver.queue_length
                          if self.driver is not None else 0),
            in_flight=(self.driver.in_flight
                       if self.driver is not None else 0),
            silos_live=platform.silos_live,
            silos_draining=platform.silos_draining,
            silos_total=platform.silos_total,
            resident=platform.resident,
            paged=platform.paged,
            messages=platform.messages,
            **load,
        )

    # ------------------------------------------------------------------
    # act side
    # ------------------------------------------------------------------
    def execute(self, action: ControlAction,
                source: str = "api") -> dict:
        """Dispatch one command, append and return its audit record."""
        host = self.app.scaling_host
        if (isinstance(action, DrainSilo) and action.target is None
                and host is not None):
            # Pinned before dispatch so the record names the victim.
            action = DrainSilo(host.drain_candidate())
        record = execute(host, action, self.env.now, source=source)
        self.action_log.append(record)
        return record

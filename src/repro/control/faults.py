"""Timed fault injection: a schedule of typed actions on the sim clock.

A :class:`FaultSchedule` is an immutable, time-ordered list of
:class:`FaultEvent` — a typed
:class:`~repro.control.actions.ControlAction` plus the simulated time
it fires at.  Like the autoscaler it is a control *issuer*: installed
on a run's :class:`~repro.control.plane.ControlPlane`, it fires every
event through ``plane.execute(action, source="fault")``, so what fired
and whether it applied is read from the plane's one audited
``action_log`` (a host that is missing, or lacks the verb, records the
event as skipped).  The schedule itself carries no per-run state and
can be shared between runs::

    schedule = FaultSchedule([
        FaultEvent(3.0, CrashSilo("silo-1")),
        FaultEvent(5.0, AddSilo()),
    ])
    schedule.install(env, plane)         # fires on the sim clock
    ...
    plane.action_log                     # what fired, what applied

``docs/scenarios.md`` documents the shipped fault schedules and
``docs/metrics.md`` the availability report computed from the log.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.actions import ControlAction

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.plane import ControlPlane
    from repro.runtime import Environment
    from repro.runtime.process import Process


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One timed action, ``at`` seconds after the schedule installs."""

    at: float
    action: ControlAction

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if not isinstance(self.action, ControlAction):
            raise TypeError(f"fault action must be a ControlAction, "
                            f"got {self.action!r}")


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """Timed fault events (any iterable), held as a tuple in firing
    order."""

    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(
            self.events, key=lambda event: event.at)))

    def __len__(self) -> int:
        return len(self.events)

    def time_scaled(self, factor: float) -> "FaultSchedule":
        """A copy with every event time stretched by ``factor``."""
        if factor <= 0:
            raise ValueError("time scale factor must be > 0")
        return FaultSchedule(
            dataclasses.replace(event, at=event.at * factor)
            for event in self.events)

    def install(self, env: "Environment",
                plane: "ControlPlane") -> "Process":
        """Start the injector process: fire each event at its time
        (relative to now) through ``plane``.  Returns the process."""
        return env.process(self._run(env, plane), name="fault-injector")

    def _run(self, env: "Environment", plane: "ControlPlane"):
        start = env.now
        for event in self.events:
            fire_at = start + event.at
            if fire_at > env.now:
                yield env.timeout(fire_at - env.now)
            plane.execute(event.action, source="fault")

"""`repro.control` — the control-plane API over all four stacks.

Read typed signals, issue typed membership actions, close the loop
with an SLO-driven autoscaler, and run catalogue scenarios through one
facade:

* :class:`RuntimeSignals` / :class:`PlatformStats` — the documented
  snapshot schemas (``signals.py``);
* :class:`AddSilo` / :class:`DrainSilo` / :class:`CrashSilo` — typed
  membership commands shared by fault schedules and the autoscaler
  (``actions.py``);
* :class:`ControlPlane` — the read/act surface over an app's scaling
  host, and the run's one audited action log (``plane.py``);
* :class:`FaultSchedule` / :class:`FaultEvent` — timed actions fired
  through the plane (``faults.py``);
* :class:`Autoscaler` / :class:`AutoscalerConfig` / :class:`SLOTarget`
  — the controller (``autoscaler.py``);
* :func:`run_scenario` / :class:`ScenarioRun` — the one entry point
  for end-to-end scenario execution (``facade.py``).

``docs/elasticity.md`` covers the controller design and the elasticity
report computed from its samples.
"""

from repro.control.actions import (
    AddSilo,
    ControlAction,
    CrashSilo,
    DrainSilo,
)
from repro.control.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    SLOTarget,
)
from repro.control.facade import ScenarioRun, run_scenario
from repro.control.faults import FaultEvent, FaultSchedule
from repro.control.plane import ControlPlane
from repro.control.signals import (
    PlatformStats,
    RuntimeSignals,
    SignalWindow,
)

__all__ = [
    "AddSilo",
    "Autoscaler",
    "AutoscalerConfig",
    "ControlAction",
    "ControlPlane",
    "CrashSilo",
    "DrainSilo",
    "FaultEvent",
    "FaultSchedule",
    "PlatformStats",
    "RuntimeSignals",
    "ScenarioRun",
    "SignalWindow",
    "SLOTarget",
    "run_scenario",
]

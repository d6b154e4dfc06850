"""Availability analysis for fault-injection runs.

Correlates a run's per-second throughput and error timelines with the
membership fault log to answer the questions a fault scenario exists
to ask: how deep was the outage, how long until the system was back to
its pre-fault throughput, and how much state did the fault destroy.

Definitions (all in whole measured-window seconds):

*pre-fault throughput*
    mean successful completions/second over the seconds strictly
    before the first disruptive fault (crash or drain).
*unavailable second*
    a second at/after the fault with at least one failed/aborted
    transaction, or with throughput below ``dip_fraction`` of the
    pre-fault mean.
*unavailability window*
    the span from the first to the last unavailable second.
*recovery time*
    seconds from the fault until the first second that is both
    error-free and at/above ``recovery_fraction`` of the pre-fault
    throughput; None when the run never recovers inside the window.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.actions import CrashSilo, DrainSilo

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.driver.metrics import RunMetrics

#: Fault actions that take capacity away (joins only add it).
DISRUPTIVE_ACTIONS = (CrashSilo.kind, DrainSilo.kind)


@dataclasses.dataclass
class AvailabilityReport:
    """The availability story of one fault-injection run."""

    app: str
    #: Applied fault-log entries (time, second, action, target, ...).
    faults: list[dict]
    #: Measured second of the first disruptive fault, or None.
    fault_second: int | None
    #: Mean ok/s over the seconds before the fault (0.0 if none).
    pre_fault_tps: float
    #: Per-second rows: second, ok, errors, available.
    rows: list[dict]
    #: (first, last) unavailable second, or None when fully available.
    unavailability_window: tuple[int, int] | None
    #: Seconds from fault to recovery, or None (never recovered).
    recovery_time: float | None
    #: Volatile activations destroyed by crashes (state gone).
    state_loss_events: int
    #: Volatile activations deactivated by drain/migration handoffs.
    volatile_handoffs: int
    #: Messages re-placed and calls failed by membership churn.
    reroutes: int
    unavailable_failures: int

    @property
    def unavailable_seconds(self) -> int:
        return sum(1 for row in self.rows if not row["available"])

    def summary_row(self) -> dict:
        """One table row for cross-app comparisons."""
        window = self.unavailability_window
        return {
            "app": self.app,
            "fault_s": self.fault_second,
            "pre_tps": round(self.pre_fault_tps, 1),
            "unavail_s": self.unavailable_seconds,
            "window": (f"{window[0]}..{window[1]}" if window else "-"),
            "recovery_s": (round(self.recovery_time, 1)
                           if self.recovery_time is not None else "-"),
            "state_loss": self.state_loss_events,
            "reroutes": self.reroutes,
        }


def _membership_runtime(metrics: "RunMetrics") -> dict:
    return metrics.runtime.get("membership", {})


def availability_report(metrics: "RunMetrics",
                        dip_fraction: float = 0.5,
                        recovery_fraction: float = 0.7,
                        ) -> AvailabilityReport:
    """Compute the availability story of ``metrics``.

    Works on any open-loop run that carried a fault schedule; a run
    whose faults were all skipped (no scaling host) yields a report
    with ``fault_second=None`` and every second available.
    """
    faults = [entry for entry
              in metrics.open_loop.get("fault_events", [])
              if entry.get("applied")]
    disruptions = [entry["second"] for entry in faults
                   if entry["action"] in DISRUPTIVE_ACTIONS]
    fault_second = min(disruptions) if disruptions else None

    ok = dict(metrics.timeline)
    errors = dict(metrics.error_timeline)
    # Whole seconds of the measured window only: the trailing partial
    # bucket (late drain completions) would read as a spurious dip.
    seconds = list(range(int(metrics.duration)))
    pre = [ok.get(second, 0) for second in seconds
           if fault_second is not None and 0 <= second < fault_second]
    pre_fault_tps = sum(pre) / len(pre) if pre else 0.0

    rows = []
    for second in seconds:
        ok_count = ok.get(second, 0)
        err_count = errors.get(second, 0)
        degraded = (fault_second is not None and second >= fault_second
                    and (err_count > 0
                         or ok_count < dip_fraction * pre_fault_tps))
        rows.append({"second": second, "ok": ok_count,
                     "errors": err_count, "available": not degraded})

    unavailable = [row["second"] for row in rows if not row["available"]]
    window = ((unavailable[0], unavailable[-1]) if unavailable else None)

    recovery_time = None
    if fault_second is not None:
        for row in rows:
            if row["second"] < fault_second:
                continue
            if (row["errors"] == 0
                    and row["ok"] >= recovery_fraction * pre_fault_tps):
                recovery_time = float(row["second"] - fault_second)
                break

    membership = _membership_runtime(metrics)
    return AvailabilityReport(
        app=metrics.app,
        faults=faults,
        fault_second=fault_second,
        pre_fault_tps=pre_fault_tps,
        rows=rows,
        unavailability_window=window,
        recovery_time=recovery_time,
        state_loss_events=membership.get("state_loss_events", 0),
        volatile_handoffs=membership.get("volatile_handoffs", 0),
        reroutes=membership.get("reroutes", 0),
        unavailable_failures=membership.get("unavailable_failures", 0))


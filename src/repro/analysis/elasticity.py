"""Elasticity analysis for autoscaled runs.

Turns the control block an autoscaled open-loop run exports (the
per-interval :class:`~repro.control.autoscaler.Autoscaler` samples plus
the audited action log) into the questions an elasticity experiment
exists to ask: how long did the controller take to react, how long
until the SLO held again, and how many silo-seconds were wasted above —
or missing below — the ideal capacity curve.

Definitions:

*ideal capacity*
    per sample, ``clamp(ceil(arrival_rate / rate_per_silo), min_silos,
    max_silos)`` — the silo count a clairvoyant provisioner running the
    controller's own capacity model would hold.  ``rate_per_silo``
    comes from the autoscaler config; when the config leaves it None it
    is derived from the run's mean arrival rate and starting shape.
*scaling lag*
    seconds from the first SLO-breaching sample to the first applied
    ``add_silo`` (None when nothing breached or nothing was applied).
*recovery time*
    seconds from the first breaching sample to the start of the final
    breach-free suffix of the sample series; None when the last sample
    still breaches (the run ended out of SLO).
*over-/under-provisioning area*
    silo-seconds spent above/below the ideal curve, each sample
    counting for one controller interval.

The report is embedded in matrix cell payloads (``elasticity`` key) by
:func:`repro.core.matrix.cell_payload` and drives
``benchmarks/bench_e0_elasticity.py``; ``docs/elasticity.md`` walks
through the semantics.
"""

from __future__ import annotations

import dataclasses
import math

from repro.control.actions import AddSilo, DrainSilo


@dataclasses.dataclass
class ElasticityReport:
    """The elasticity story of one autoscaled run."""

    app: str
    #: SLO the controller defended (queue_delay_p95, error_rate).
    slo: dict
    #: Whether the controller was allowed to act (False = the
    #: fixed-provisioning baseline, observing only).
    enabled: bool
    #: Arrivals/second one silo is provisioned for in the ideal curve.
    rate_per_silo: float
    #: Samples with the p95 or error bound breached, in seconds.
    slo_violation_seconds: float
    #: First breach -> first applied add_silo, or None.
    scaling_lag: float | None
    #: First breach -> start of the final breach-free suffix, or None
    #: when the run ended still in breach.
    recovery_time: float | None
    #: True when the sample series ends inside the SLO.
    recovered: bool
    #: Silo-seconds above / below the ideal capacity curve.
    over_provisioned_area: float
    under_provisioned_area: float
    #: Integral of live silos over the sampled run, in silo-seconds.
    silo_seconds: float
    ideal_silo_seconds: float
    peak_silos: int
    min_silos: int
    #: Applied membership actions by kind (autoscaler source only).
    scale_ups: int
    scale_downs: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def summary_row(self) -> dict:
        """One table row for cross-app comparisons."""
        return {
            "app": self.app,
            "violation_s": round(self.slo_violation_seconds, 2),
            "lag_s": (round(self.scaling_lag, 2)
                      if self.scaling_lag is not None else "-"),
            "recovery_s": (round(self.recovery_time, 2)
                           if self.recovery_time is not None else "-"),
            "silos": f"{self.min_silos}..{self.peak_silos}",
            "over_area": round(self.over_provisioned_area, 2),
            "under_area": round(self.under_provisioned_area, 2),
            "actions": f"+{self.scale_ups}/-{self.scale_downs}",
        }


def elasticity_report(control: dict,
                      app: str = "") -> ElasticityReport | None:
    """Compute the elasticity story of one run's ``control`` block.

    ``control`` is the ``open_loop["control"]`` dict an autoscaled run
    exports (SLO, bounds, samples, actions); returns None when there
    are no samples to analyse.
    """
    samples = control.get("samples") or []
    if not samples:
        return None
    interval = control.get("interval") or 1.0
    min_bound = control.get("min_silos", 1)
    max_bound = control.get("max_silos", max(s["silos"] for s in samples))

    rate_per_silo = control.get("rate_per_silo")
    if not rate_per_silo:
        mean_rate = (sum(s["arrival_rate"] for s in samples)
                     / len(samples))
        rate_per_silo = max(mean_rate / samples[0]["silos"], 1e-9)

    over = under = silo_seconds = ideal_seconds = 0.0
    for sample in samples:
        ideal = math.ceil(sample["arrival_rate"] / rate_per_silo)
        ideal = min(max(ideal, min_bound), max_bound)
        over += max(0, sample["silos"] - ideal) * interval
        under += max(0, ideal - sample["silos"]) * interval
        silo_seconds += sample["silos"] * interval
        ideal_seconds += ideal * interval

    breaches = [s["time"] for s in samples if s["breach"]]
    first_breach = breaches[0] if breaches else None
    last_breach = breaches[-1] if breaches else None
    recovered = not samples[-1]["breach"]

    scaling_lag = None
    recovery_time = None
    if first_breach is not None:
        adds = [entry["time"] for entry in control.get("actions", [])
                if entry["action"] == AddSilo.kind and entry["applied"]
                and entry.get("source") == "autoscaler"
                and entry["time"] >= first_breach]
        if adds:
            scaling_lag = adds[0] - first_breach
        if recovered:
            # The SLO holds again from the sample after the last
            # breach; the final suffix of the series is breach-free.
            recovery_time = (last_breach + interval) - first_breach

    actions = [entry for entry in control.get("actions", [])
               if entry["applied"] and entry.get("source") == "autoscaler"]
    return ElasticityReport(
        app=app,
        slo=dict(control.get("slo", {})),
        enabled=control.get("enabled", True),
        rate_per_silo=rate_per_silo,
        slo_violation_seconds=len(breaches) * interval,
        scaling_lag=scaling_lag,
        recovery_time=recovery_time,
        recovered=recovered,
        over_provisioned_area=over,
        under_provisioned_area=under,
        silo_seconds=silo_seconds,
        ideal_silo_seconds=ideal_seconds,
        peak_silos=max(s["silos"] for s in samples),
        min_silos=min(s["silos"] for s in samples),
        scale_ups=sum(1 for entry in actions
                      if entry["action"] == AddSilo.kind),
        scale_downs=sum(1 for entry in actions
                        if entry["action"] == DrainSilo.kind))


def elasticity_rows(reports: "list[ElasticityReport]") -> list[dict]:
    """Summary rows for CSV/markdown export, one per report."""
    return [report.summary_row() for report in reports]

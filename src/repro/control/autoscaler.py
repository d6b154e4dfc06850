"""SLO-driven autoscaling: closing the loop from signals to actions.

The :class:`Autoscaler` is a controller process that samples its
control plane once per ``interval`` simulated seconds, compares the
:class:`~repro.control.signals.RuntimeSignals` snapshot against an
:class:`SLOTarget`, and issues typed
:class:`~repro.control.actions.AddSilo` /
:class:`~repro.control.actions.DrainSilo` commands.  Scaling cost is
not modelled here — it *is* the platform's own mechanism: live grain
migration and placement-epoch churn on the actor stacks, a
stop-the-world rescale pause on the dataflow stack.

Stability comes from four guards (``docs/elasticity.md`` discusses the
tuning):

* **hysteresis** — scale-up triggers when p95 queue delay (or error
  rate) *breaches* the SLO for ``breach_ticks`` consecutive samples;
  scale-down only when delay sits *below* ``SCALE_DOWN_FRACTION`` of
  the bound (and the backlog is empty) for ``clear_ticks`` samples.
  The dead band between the two thresholds prevents flapping.
* **cooldown** — after any applied action, scale-up waits
  ``cooldown_up`` and scale-down ``cooldown_down`` seconds, giving the
  migration it just caused time to show up in the signals.
* **bounds** — the live silo count stays within
  [``min_silos``, ``max_silos``].
* **drain exclusion** — no decision fires while a drain is still in
  progress; a half-migrated cluster gives misleading signals.

The controller is deliberately RNG-free: its decisions are a pure
function of the sampled signals, so a run with an autoscaler is as
reproducible as one without (same seed -> identical action log).

Every sample is kept in :attr:`Autoscaler.samples` — the per-second
capacity/breach series that ``analysis/elasticity.py`` turns into
scaling-lag and over-/under-provisioning reports.  With
``enabled=False`` the controller observes and samples but never acts:
that is the fixed-provisioning baseline the elasticity benchmark
compares against.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.control.actions import AddSilo, ControlAction, DrainSilo

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.plane import ControlPlane
    from repro.control.signals import RuntimeSignals
    from repro.runtime import Environment
    from repro.runtime.process import Process


#: "Clear" means p95 below this fraction of the SLO bound — the
#: hysteresis dead band between scale-up and scale-down triggers.
SCALE_DOWN_FRACTION = 0.3


@dataclasses.dataclass(frozen=True)
class SLOTarget:
    """The service-level objective the controller defends.

    Both bounds are on *window* aggregates (the plane's sliding
    window): p95 queue delay in seconds — arrival-to-dispatch, the
    client-visible queueing a saturated platform causes — and the
    failed+aborted fraction of completions.
    """

    queue_delay_p95: float = 0.050
    error_rate: float = 0.01

    def __post_init__(self) -> None:
        # Comparisons that NaN fails: a NaN bound could never breach.
        if not 0 < self.queue_delay_p95 < math.inf:
            raise ValueError(f"queue_delay_p95 must be finite and > 0, "
                             f"got {self.queue_delay_p95}")
        if not 0 <= self.error_rate <= 1:
            raise ValueError(f"error_rate must be in [0, 1], "
                             f"got {self.error_rate}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AutoscalerConfig:
    """Controller tuning: SLO, sampling cadence, stability guards."""

    slo: SLOTarget = SLOTarget()
    #: Simulated seconds between signal samples.
    interval: float = 1.0
    #: Sliding-window width for the signal aggregates.
    window: float = 3.0
    min_silos: int = 1
    max_silos: int = 8
    #: Consecutive breaching samples before a scale-up.
    breach_ticks: int = 2
    #: Consecutive clear samples before a scale-down.
    clear_ticks: int = 3
    cooldown_up: float = 2.0
    cooldown_down: float = 4.0
    #: Capacity model for the elasticity report's ideal curve:
    #: arrivals/second one silo is provisioned for (None = derive from
    #: the run's mean rate and starting shape).
    rate_per_silo: float | None = None
    #: With False the controller samples but never acts — the
    #: fixed-provisioning baseline.
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.min_silos <= self.max_silos:
            raise ValueError("need 1 <= min_silos <= max_silos")
        if self.breach_ticks < 1 or self.clear_ticks < 1:
            raise ValueError("tick thresholds must be >= 1")
        # Each rule is a comparison that NaN and infinity fail.
        rate = self.rate_per_silo
        rules = [(name, "> 0", 0 < getattr(self, name) < math.inf)
                 for name in ("interval", "window")]
        rules += [(name, ">= 0", 0 <= getattr(self, name) < math.inf)
                  for name in ("cooldown_up", "cooldown_down")]
        rules += [("rate_per_silo", "> 0 or None",
                   rate is None or 0 < rate < math.inf)]
        for name, rule, holds in rules:
            if not holds:
                raise ValueError(f"{name} must be finite and {rule}, "
                                 f"got {getattr(self, name)}")

    def time_scaled(self, factor: float) -> "AutoscalerConfig":
        """A copy with schedule-time knobs stretched by ``factor``.

        Sampling cadence, window and cooldowns live on the experiment
        clock, so ``--duration-scale`` stretches them with the run; the
        SLO bounds are service-time quantities and stay fixed.
        """
        if factor <= 0:
            raise ValueError("time scale factor must be > 0")
        return dataclasses.replace(
            self, interval=self.interval * factor,
            window=self.window * factor,
            cooldown_up=self.cooldown_up * factor,
            cooldown_down=self.cooldown_down * factor)


class Autoscaler:
    """The controller process: sample, decide, act, audit."""

    def __init__(self, plane: "ControlPlane",
                 config: AutoscalerConfig | None = None) -> None:
        self.plane = plane
        self.config = config or AutoscalerConfig()
        #: One dict per sample: the capacity/breach time series.
        self.samples: list[dict] = []
        self._breach_streak = 0
        self._clear_streak = 0
        self._last_up = -float("inf")
        self._last_down = -float("inf")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def install(self, env: "Environment",
                until: float | None = None) -> "Process":
        """Start sampling every ``interval`` seconds until ``until``."""
        return env.process(self._run(env, until), name="autoscaler")

    def _run(self, env: "Environment", until: float | None):
        interval = self.config.interval
        while until is None or env.now + interval <= until + 1e-9:
            yield env.timeout(interval)
            self.tick(env.now)

    # ------------------------------------------------------------------
    # one control cycle
    # ------------------------------------------------------------------
    def tick(self, now: float) -> dict:
        """Sample signals, maybe act; returns the sample record."""
        signals = self.plane.signals()
        breach, clear = self._classify(signals)
        decision = self._decide(now, signals, breach, clear)
        applied = False
        if decision is not None and self.config.enabled:
            record = self.plane.execute(decision, source="autoscaler")
            applied = record["applied"]
            if applied:
                if isinstance(decision, AddSilo):
                    self._last_up = now
                else:
                    self._last_down = now
                self._breach_streak = 0
                self._clear_streak = 0
        sample = {
            "time": round(now, 6),
            "p95_ms": round(signals.queue_delay_p95 * 1000, 3),
            "error_rate": round(signals.error_rate, 4),
            "arrival_rate": round(signals.arrival_rate, 3),
            "queue": signals.queue_length,
            "silos": signals.silos_live,
            "draining": signals.silos_draining,
            "breach": breach,
            "action": (decision.kind
                       if decision is not None and self.config.enabled
                       else None),
            "applied": applied,
        }
        self.samples.append(sample)
        return sample

    def _classify(self, signals: "RuntimeSignals") -> tuple[bool, bool]:
        slo = self.config.slo
        breach = (signals.queue_delay_p95 > slo.queue_delay_p95
                  or signals.error_rate > slo.error_rate)
        clear = (signals.queue_delay_p95
                 <= slo.queue_delay_p95 * SCALE_DOWN_FRACTION
                 and signals.error_rate <= slo.error_rate
                 and signals.queue_length == 0)
        self._breach_streak = self._breach_streak + 1 if breach else 0
        self._clear_streak = self._clear_streak + 1 if clear else 0
        return breach, clear

    def _decide(self, now: float, signals: "RuntimeSignals",
                breach: bool, clear: bool) -> ControlAction | None:
        cfg = self.config
        if signals.silos_draining > 0:
            return None
        if (self._breach_streak >= cfg.breach_ticks
                and signals.silos_live < cfg.max_silos
                and now - self._last_up >= cfg.cooldown_up):
            return AddSilo()
        if (self._clear_streak >= cfg.clear_ticks
                and signals.silos_live > cfg.min_silos
                and now - max(self._last_up, self._last_down)
                >= cfg.cooldown_down):
            return DrainSilo()
        return None

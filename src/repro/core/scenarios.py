"""The named scenario suite: declarative open-loop workload shapes.

Each :class:`Scenario` composes a :class:`WorkloadConfig` (scale, skew,
transaction mix) with an arrival schedule and optional hotspot window
into one reproducible experiment a single name away::

    python -m repro.cli scenario flash-sale --app orleans-eventual

Scenarios deliberately stress different axes of the four platforms:

``baseline``            steady Poisson traffic well under capacity.
``flash-sale``          a temporary arrival burst plus a Zipf-skew
                        spike on a handful of hot products.
``heavy-writer``        seller-write-dominated mix (price updates and
                        deletes) at a steady rate.
``burst-then-quiesce``  a hard burst followed by near-silence, probing
                        queue drain and recovery.
``delete-churn``        sustained product deletes with a deep reserve
                        pool, stressing delete compensation paths.
``overload-ramp``       arrival rate ramping linearly past capacity to
                        expose the saturation knee.
``silo-crash``          a silo fail-stops mid-window: volatile grain
                        state is lost, in-flight calls fail, and the
                        availability timeline shows the outage and the
                        recovery.
``scale-out-under-load``  two joins land on a small hot cluster while
                        arrivals keep coming: grain migration under
                        load.
``rolling-restart``     every original silo is drained and replaced in
                        sequence — the zero-downtime deployment test.
``return-storm``        delivery-heavy mix with a steady stream of
                        return requests: the compensation saga under
                        light message loss.
``payment-flaky``       15% of payments decline: the payment-failure
                        abort path (release stock, cancel the order)
                        on every checkout-carrying stack.
``duplicate-ingest``    external-platform orders where a third of the
                        submits race a duplicate: the idempotent front
                        door and the exactly-once audit.
``million-keys``        a million-product catalogue generated lazily
                        on first touch under a per-silo activation
                        budget: memory tracks the touched set, not
                        the configured world.
``diurnal``             a compressed day of sinusoidal traffic against
                        an SLO-driven autoscaler: capacity follows the
                        wave up and back down.
``autoscale-flash-sale``  the flash-sale burst landing on a small
                        elastic cluster: the autoscaler must scale out
                        fast enough to restore the p95 SLO and scale
                        back in once the sale ends.

Rates are expressed relative to ``base_rate`` so one ``--rate-scale``
knob moves a whole scenario up or down without changing its shape.
Fault times, like the hotspot window, are relative to run start
(warm-up included) and stretch with ``--duration-scale``; autoscaler
cadence and cooldowns stretch the same way (the SLO itself does not).

Scenario runs should go through
:func:`repro.control.run_scenario` — it performs the canonical
environment/app/driver assembly — rather than hand-building drivers.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.actions import AddSilo, CrashSilo, DrainSilo
from repro.control.autoscaler import AutoscalerConfig, SLOTarget
from repro.control.faults import FaultEvent, FaultSchedule
from repro.core.driver.arrivals import (
    ArrivalProcess,
    ConstantRate,
    PhasedArrivals,
    PoissonArrivals,
    RampArrivals,
    SinusoidArrivals,
)
from repro.core.driver.open_loop import (
    HotspotSpec,
    OpenLoopConfig,
    OpenLoopDriver,
)
from repro.core.workload.config import TransactionMix, WorkloadConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.runtime import Environment

#: Scenario workloads share a modest marketplace so CLI runs finish in
#: seconds; scale axes live in the arrival schedule, not the dataset.
_SCALE = dict(sellers=6, customers=64, products_per_seller=8)

#: Silos and cores-per-silo used when neither the scenario nor the
#: caller pins a cluster shape (mirrors the AppConfig defaults).
_DEFAULT_CLUSTER_SHAPE = 4


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named, declarative open-loop experiment.

    A scenario is a value: every config it holds is frozen, so one
    catalogue entry serves every run and carries no per-run state."""

    name: str
    description: str
    workload: WorkloadConfig
    #: Builds the arrival schedule from the scaled base rate.
    arrivals: typing.Callable[[float], ArrivalProcess]
    #: Nominal arrivals/second the shape is expressed against.
    base_rate: float = 150.0
    warmup: float = 1.0
    duration: float = 5.0
    drain: float = 2.0
    max_in_flight: int = 32
    #: Hotspot window relative to run start, or None.
    hotspot: HotspotSpec | None = None
    #: Timed membership faults (times relative to run start), or None.
    faults: FaultSchedule | None = None
    #: SLO-driven elasticity controller for the run, or None.
    autoscaler: AutoscalerConfig | None = None
    #: Cluster shape the scenario is designed for; the CLI and benches
    #: use these as the app defaults (None = leave the app default).
    cluster_silos: int | None = None
    cluster_cores: int | None = None
    #: Payment approval rate the scenario runs the app with.
    approval_rate: float = 1.0
    #: Message-loss probability the scenario runs the app with.
    drop_probability: float = 0.0
    #: Per-silo activation budget (per-worker address budget on the
    #: dataflow stack); None = unbounded residency.
    activation_limit: int | None = None

    @property
    def effective_silos(self) -> int:
        """Silo count to run with when the caller has no override."""
        return self.cluster_silos if self.cluster_silos is not None \
            else _DEFAULT_CLUSTER_SHAPE

    @property
    def effective_cores(self) -> int:
        """Cores per silo to run with absent a caller override."""
        return self.cluster_cores if self.cluster_cores is not None \
            else _DEFAULT_CLUSTER_SHAPE

    def build_config(self, rate_scale: float = 1.0,
                     duration_scale: float = 1.0) -> OpenLoopConfig:
        """Instantiate the schedule; ``duration_scale`` stretches the
        whole time axis (window, warm-up, drain, phase/ramp durations
        and the hotspot window alike) so the scenario's shape — and
        the drain's headroom for clearing the end-of-window backlog —
        is preserved at any scale."""
        if rate_scale <= 0 or duration_scale <= 0:
            raise ValueError("scales must be > 0")
        arrivals = self.arrivals(self.base_rate)
        if rate_scale != 1.0:
            arrivals = arrivals.scaled(rate_scale)
        timed = (arrivals, self.hotspot, self.faults, self.autoscaler)
        if duration_scale != 1.0:
            timed = [None if value is None
                     else value.time_scaled(duration_scale)
                     for value in timed]
        arrivals, hotspot, faults, autoscaler = timed
        return OpenLoopConfig(
            arrivals=arrivals,
            warmup=self.warmup * duration_scale,
            duration=self.duration * duration_scale,
            drain=self.drain * duration_scale,
            max_in_flight=self.max_in_flight,
            hotspot=hotspot,
            faults=faults,
            autoscaler=autoscaler)

    def build_driver(self, env: "Environment", app: "MarketplaceApp",
                     rate_scale: float = 1.0,
                     duration_scale: float = 1.0,
                     data_seed: int = 0) -> OpenLoopDriver:
        """A ready-to-run :class:`OpenLoopDriver` for this scenario:
        its workload and scaled schedule against ``app``, dataset
        seeded with ``data_seed``."""
        return OpenLoopDriver(
            env, app, self.workload,
            self.build_config(rate_scale, duration_scale),
            data_seed=data_seed)


def _workload(**overrides) -> WorkloadConfig:
    return WorkloadConfig(**{**_SCALE, **overrides})


def _flash_sale_arrivals(rate: float) -> PhasedArrivals:
    # calm -> 4x spike -> calm; the spike lines up with the hotspot.
    return PhasedArrivals([
        (2.0, PoissonArrivals(rate)),
        (2.0, PoissonArrivals(rate * 4.0)),
        (2.0, PoissonArrivals(rate)),
    ])


def _burst_quiesce_arrivals(rate: float) -> PhasedArrivals:
    return PhasedArrivals([
        (1.5, PoissonArrivals(rate * 5.0)),
        (4.5, PoissonArrivals(rate * 0.1)),
    ])


SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    SCENARIOS[scenario.name] = scenario


_register(Scenario(
    name="baseline",
    description="Steady Poisson arrivals well under capacity; the "
                "reference point the stress scenarios compare against.",
    workload=_workload(),
    arrivals=PoissonArrivals,
))

_register(Scenario(
    name="flash-sale",
    description="A 2-second arrival burst at 4x the base rate while "
                "product popularity spikes onto the top three ranks — "
                "the classic hotspot that separates lock-based, "
                "dataflow and eventual designs.",
    workload=_workload(zipf_s=1.0),
    arrivals=_flash_sale_arrivals,
    duration=6.0,
    warmup=0.5,
    # Small enough that the 4x spike outruns the pool and queues.
    max_in_flight=6,
    # The arrival schedule starts at run start (warm-up included), so
    # the 4x phase covers sim-seconds [2.0, 4.0); the hotspot window
    # matches it exactly.
    hotspot=HotspotSpec(start=2.0, end=4.0),
))

_register(Scenario(
    name="heavy-writer",
    description="Seller-write-dominated mix: price updates and deletes "
                "outweigh checkouts, stressing replication fan-out and "
                "write contention.",
    workload=_workload(mix=TransactionMix(
        checkout=30.0, price_update=40.0, product_delete=8.0,
        update_delivery=7.0, dashboard=15.0)),
    arrivals=ConstantRate,
    base_rate=120.0,
))

_register(Scenario(
    name="burst-then-quiesce",
    description="A hard 5x burst followed by near-silence: probes how "
                "deep the queue gets and how fast it drains once load "
                "drops.",
    workload=_workload(),
    arrivals=_burst_quiesce_arrivals,
    duration=6.0,
    warmup=0.5,
    max_in_flight=6,
))

_register(Scenario(
    name="delete-churn",
    description="Sustained product deletes backed by a deep reserve "
                "pool: exercises delete compensation and tombstone "
                "handling without distorting the key distribution.",
    workload=_workload(
        reserve_fraction=2.0,
        mix=TransactionMix(checkout=45.0, price_update=10.0,
                           product_delete=25.0, update_delivery=5.0,
                           dashboard=15.0)),
    arrivals=PoissonArrivals,
    base_rate=100.0,
))

_register(Scenario(
    name="overload-ramp",
    description="Arrival rate ramping linearly from 0.5x to 5x the "
                "base rate: the queueing-delay curve locates the "
                "saturation knee.",
    workload=_workload(),
    arrivals=lambda rate: RampArrivals(rate * 0.5, rate * 5.0,
                                       ramp_duration=6.0),
    duration=6.0,
    drain=3.0,
    # Deliberately tiny: the ramp must cross the pool's capacity.
    max_in_flight=4,
))


_register(Scenario(
    name="silo-crash",
    description="One of four silos fail-stops mid-window: queued calls "
                "are re-placed, in-flight calls fail, volatile grain "
                "state is lost, and the availability timeline shows "
                "the outage depth and the recovery time.",
    workload=_workload(),
    arrivals=PoissonArrivals,
    duration=6.0,
    warmup=1.0,
    # Crash lands at measured second 2, leaving two clean pre-fault
    # seconds to baseline the recovery against.
    faults=FaultSchedule([
        FaultEvent(3.0, CrashSilo("silo-1")),
    ]),
))

_register(Scenario(
    name="scale-out-under-load",
    description="A two-silo cluster takes sustained load while two "
                "silos join mid-window: placement shifts, activations "
                "migrate to the new owners, and capacity grows without "
                "stopping traffic.",
    workload=_workload(),
    arrivals=ConstantRate,
    base_rate=250.0,
    duration=6.0,
    warmup=1.0,
    max_in_flight=12,
    cluster_silos=2,
    cluster_cores=2,
    faults=FaultSchedule([
        FaultEvent(3.0, AddSilo()),
        FaultEvent(4.0, AddSilo()),
    ]),
))

_register(Scenario(
    name="rolling-restart",
    description="Every original silo is drained (state handed off "
                "cleanly) and replaced by a fresh join, one at a time "
                "under live traffic — the zero-downtime deployment "
                "drill.",
    workload=_workload(),
    arrivals=PoissonArrivals,
    duration=8.0,
    warmup=1.0,
    # First drain at measured second 2, leaving a pre-fault baseline;
    # each replacement joins half a second after its drain begins.
    faults=FaultSchedule([
        FaultEvent(3.0, DrainSilo("silo-0")),
        FaultEvent(3.5, AddSilo()),
        FaultEvent(4.5, DrainSilo("silo-1")),
        FaultEvent(5.0, AddSilo()),
        FaultEvent(6.0, DrainSilo("silo-2")),
        FaultEvent(6.5, AddSilo()),
        FaultEvent(7.5, DrainSilo("silo-3")),
        FaultEvent(8.0, AddSilo()),
    ]),
))


_register(Scenario(
    name="return-storm",
    description="Delivery-heavy traffic with a steady stream of return "
                "requests under light message loss: every completed "
                "order is a refund candidate, so the compensation saga "
                "(refund + restock + ledger reversal) runs constantly "
                "— atomic stacks keep C1, the eventual stack strands "
                "returns mid-saga.",
    workload=_workload(mix=TransactionMix(
        checkout=35.0, price_update=5.0, product_delete=1.0,
        update_delivery=24.0, dashboard=10.0, request_return=25.0)),
    arrivals=PoissonArrivals,
    base_rate=120.0,
    drop_probability=0.01,
))

_register(Scenario(
    name="payment-flaky",
    description="15% of payment authorizations decline: every stack "
                "must run the payment-failure abort (release stock, "
                "fail then cancel the order) without leaking "
                "reservations or spend.",
    workload=_workload(),
    arrivals=PoissonArrivals,
    base_rate=120.0,
    approval_rate=0.85,
))

_register(Scenario(
    name="duplicate-ingest",
    description="External-platform orders dominate and a third of the "
                "submits race an identical duplicate under heavy "
                "message loss: the idempotent front door must create "
                "each (platform, shop, order-no) exactly once — the "
                "C6 audit proves it on the transactional stacks and "
                "counts the orphaned/duplicated registrations the "
                "at-least-once retry leaves behind on the eventual "
                "one.",
    workload=_workload(
        duplicate_submit_probability=0.35,
        mix=TransactionMix(
            checkout=25.0, price_update=5.0, product_delete=1.0,
            update_delivery=14.0, dashboard=15.0,
            submit_external=40.0)),
    arrivals=PoissonArrivals,
    base_rate=120.0,
    drop_probability=0.10,
))


_register(Scenario(
    name="million-keys",
    description="A million-product catalogue (1000 sellers x 1000 "
                "products, 100k customers) generated lazily on first "
                "touch, with a 2000-activation per-silo budget: the "
                "driver's Zipf tail only ever materialises the keys it "
                "samples, and the working-set sweep pages idle grains "
                "out, so memory tracks the *touched* set, not the "
                "configured world.",
    workload=_workload(
        sellers=1000, products_per_seller=1000, customers=100_000),
    arrivals=PoissonArrivals,
    duration=4.0,
    warmup=0.5,
    drain=1.5,
    activation_limit=2000,
))


_register(Scenario(
    name="diurnal",
    description="A compressed day of traffic — arrival rate swinging "
                "sinusoidally from 0.35x to 1.65x the base, trough at "
                "both ends, crest at midday — against an SLO-driven "
                "autoscaler on a two-silo cluster of single-core "
                "silos: capacity should follow the wave out and back "
                "in while the p95 queue-delay SLO holds.",
    workload=_workload(),
    arrivals=lambda rate: SinusoidArrivals(rate, amplitude=0.7,
                                           period=10.0, phase=0.75),
    base_rate=340.0,
    duration=10.0,
    warmup=0.5,
    drain=2.0,
    max_in_flight=48,
    # Single-core silos put the crest past the starting capacity, so
    # the knee — and the controller's reaction to it — is the story.
    cluster_silos=2,
    cluster_cores=1,
    autoscaler=AutoscalerConfig(
        slo=SLOTarget(queue_delay_p95=0.050, error_rate=0.05),
        interval=0.25, window=1.0,
        min_silos=2, max_silos=5,
        breach_ticks=2, clear_ticks=4,
        cooldown_up=0.75, cooldown_down=1.25,
        rate_per_silo=250.0),
))

_register(Scenario(
    name="autoscale-flash-sale",
    description="The flash-sale burst landing on a two-silo elastic "
                "cluster instead of a fixed four-silo one: calm "
                "traffic, a 2.4x spike, then a quiet afternoon.  The "
                "autoscaler must detect the p95 breach, scale out "
                "fast enough to restore the SLO, and scale back in "
                "afterwards — spending fewer silo-seconds than fixed "
                "provisioning would.",
    workload=_workload(),
    arrivals=lambda rate: PhasedArrivals([
        (1.5, PoissonArrivals(rate)),
        (2.0, PoissonArrivals(rate * 2.4)),
        (4.5, PoissonArrivals(rate * 0.6)),
    ]),
    base_rate=250.0,
    duration=7.5,
    warmup=0.5,
    drain=2.5,
    max_in_flight=48,
    cluster_silos=2,
    cluster_cores=1,
    autoscaler=AutoscalerConfig(
        slo=SLOTarget(queue_delay_p95=0.050, error_rate=0.05),
        interval=0.25, window=1.0,
        min_silos=2, max_silos=4,
        breach_ticks=2, clear_ticks=4,
        cooldown_up=0.75, cooldown_down=1.25,
        rate_per_silo=250.0),
))


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {known}") from None

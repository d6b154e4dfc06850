"""The cluster: silos, placement, routing and grain references.

Membership is dynamic.  :meth:`Cluster.add_silo` grows the cluster at
runtime (existing grains whose placement moved are handed off to the
new owner), :meth:`Cluster.drain_silo` retires a silo gracefully
(placement updated first so no new work arrives, then every activation
live-migrated with its state) and :meth:`Cluster.crash_silo` fail-stops
one: queued messages are re-placed onto surviving silos, mid-execution
calls fail with ``SiloUnavailable`` and grain state is discarded — the
next activation starts empty (counted as a state-loss anomaly).

Routing tolerates membership churn: a message goes to the grain's live
activation in the grain directory (the ring decides for a grain without
one), and delivery re-derives the route when the message arrives.  If
the grain moved while the message was on the wire, or the target silo
died, delivery re-places the message (paying another network hop) up
to a bounded number of attempts before failing the call.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from heapq import heappush as _heappush

from repro.actors.errors import (
    MessageDropped,
    NoLiveSilos,
    SiloUnavailable,
    UnknownGrainType,
)
from repro.actors.grain import Grain, GrainRef
from repro.actors.placement import ConsistentHashPlacement, GrainDirectory
from repro.actors.silo import Message, Silo, SiloState
from repro.broker import Broker
from repro.config import AppConfig
from repro.runtime.events import PENDING, PooledEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment, Event

#: Poll interval of drain/migration sweeps waiting for activations to
#: go quiet.
HANDOFF_POLL = 0.001
#: Sweep interval of the working-set eviction loop.
WORKING_SET_SWEEP = 0.05
#: Pager store access: a re-activation's read, an eviction's write.
PAGER_READ_LATENCY = 0.0002
PAGER_WRITE_LATENCY = 0.0004
#: Delivery attempts per message before the caller sees
#: ``SiloUnavailable`` (first send + rerouting hops).
MAX_DELIVERY_ATTEMPTS = 4
#: Time between a silo crash and the membership view evicting it
#: (Orleans-style failure detection).  Until eviction the ring still
#: routes to the dead silo and callers see unavailability — the outage
#: window the fault scenarios measure.  Drains are coordinated and skip
#: this; 0 evicts crashes instantly too.
FAILURE_DETECTION_DELAY = 1.0


@dataclasses.dataclass
class MembershipStats:
    """Counters for membership churn and its fallout."""

    joins: int = 0
    drains: int = 0
    crashes: int = 0
    #: Activations handed off (drain or post-join rebalance).
    migrations: int = 0
    #: Messages re-placed after a stale ring or dead target.
    reroutes: int = 0
    #: Calls failed with SiloUnavailable (crash mid-execution, retry
    #: budget exhausted, or an empty ring).
    unavailable_failures: int = 0
    #: Activations whose state was destroyed: discarded by a crash, or
    #: orphaned by a handoff with no surviving owner (the measurable
    #: anomaly of the fault scenarios).
    state_loss_events: int = 0
    #: Activations live-migrated with their in-memory state intact
    #: (drain or post-join rebalancing).
    volatile_handoffs: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class WorkingSetStats:
    """Counters of the activation working-set control loop."""

    #: Activations ever created (preload + on-touch + reloads).
    activations: int = 0
    #: Activations deactivated by the working-set sweep.
    evictions: int = 0
    #: Re-activations that restored paged state.
    reloads: int = 0
    #: High-water mark of concurrently resident activations.
    peak_resident: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class _WorkingSetPager:
    """Holds paged-out grain state (models external storage).

    Payloads are kept and handed back by reference: paged state is
    frozen (an eventual grain replaces ``data`` by assignment, a
    transactional grain hands over its frozen committed state and a
    fresh copy of its commit log), so a resident grain and its paged
    copy can share it.  Eviction pays a write, re-activation a read —
    the cost that makes an activation budget a real trade-off.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._data: dict[tuple[str, str], dict] = {}
        self.reads = 0
        self.writes = 0

    def write(self, ident: tuple[str, str], payload: dict,
              then: typing.Callable[[], None]) -> None:
        """Store ``payload`` once the write latency has passed, then
        call ``then()`` — the one place an eviction's write starts."""
        def written(_event: "Event") -> None:
            self.writes += 1
            self._data[ident] = payload
            then()
        self.env.call_after(PAGER_WRITE_LATENCY, written)

    def read(self, ident: tuple[str, str]):
        yield self.env.timeout(PAGER_READ_LATENCY)
        self.reads += 1
        return self._data.pop(ident, None)

    def store(self, ident: tuple[str, str], payload: dict) -> None:
        """Zero-latency overwrite — refreshes a snapshot whose write
        latency was already paid by :meth:`write`."""
        self._data[ident] = payload

    def peek(self, ident: tuple[str, str]) -> dict | None:
        """Zero-latency audit access (the stored payload: read only)."""
        return self._data.get(ident)


class Cluster:
    """A set of silos with consistent-hash placement and a broker."""

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None,
                 broker: Broker | None = None) -> None:
        self.env = env
        #: The deployment: ``silos``, ``cores_per_silo``,
        #: ``drop_probability`` and ``activation_limit`` shape the
        #: cluster, and ``costs`` prices it.
        self.config = config or AppConfig()
        self.costs = self.config.costs
        self.broker = broker or Broker(env)
        self.placement = ConsistentHashPlacement()
        self.directory = GrainDirectory()
        #: ``grain_ref(grain_type, key)``: the one reference per grain,
        #: interned per cluster, so a repeat lookup runs in C.  An
        #: unknown type name raises on every lookup (exceptions are not
        #: cached).
        self.grain_ref = functools.cache(self._new_ref)
        self.silos: list[Silo] = []
        #: Every silo's ``activations`` dict (crashed silos' too, empty):
        #: ``Silo._file`` sums their sizes for ``peak_resident``.
        self._residents: list[dict] = []
        self._silo_ids = 0
        for _ in range(self.config.silos):
            self._new_silo()
        self._grain_types: dict[str, type[Grain]] = {}
        self._rng = env.rng("cluster")
        self.messages_sent = 0
        self.messages_dropped = 0
        self.membership = MembershipStats()
        #: Timeline of membership events: (time, event, silo name).
        self.membership_log: list[tuple[float, str, str]] = []
        #: Working-set accounting (always counted; kept out of
        #: membership_stats so reported payloads are unchanged).
        self.working_set = WorkingSetStats()
        self.pager = _WorkingSetPager(env)
        #: Idents with a live paged copy awaiting re-activation.  Only
        #: successful evictions register here, so an eviction aborted
        #: mid-write can never resurrect a stale snapshot.
        self._paged: set[tuple[str, str]] = set()
        if self.config.activation_limit is not None:
            # Armed from a zero-delay entry, so the first tick's entry is
            # sequenced after everything scheduled during set-up.
            env.call_after(0.0, self._arm_sweep)

    # ------------------------------------------------------------------
    # registries
    # ------------------------------------------------------------------
    def register_grain(self, grain_type: type[Grain]) -> type[Grain]:
        """Register a grain type (enables string-based references)."""
        self._grain_types[grain_type.__name__] = grain_type
        return grain_type

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def live_silos(self) -> list[Silo]:
        return [silo for silo in self.silos if silo.alive]

    def silo_named(self, name: str) -> Silo:
        for silo in self.silos:
            if silo.name == name:
                return silo
        raise KeyError(f"no silo named {name!r}")

    def _resolve_silo(self, silo: Silo | str) -> Silo:
        return self.silo_named(silo) if isinstance(silo, str) else silo

    def _new_silo(self, name: str | None = None) -> Silo:
        name = name or f"silo-{self._silo_ids}"
        if any(silo.name == name for silo in self.silos):
            # Ring points hash the name: a second one would collide.
            raise ValueError(f"silo name {name!r} is already in use")
        silo = Silo(self.env, name, self.config.cores_per_silo)
        self._silo_ids += 1
        silo.directory = self.directory
        self.silos.append(silo)
        self._residents.append(silo.activations)
        self.placement.add_silo(silo)
        return silo

    def _log_membership(self, event: str, silo: Silo) -> None:
        self.membership_log.append((self.env.now, event, silo.name))

    def add_silo(self, name: str | None = None) -> Silo:
        """Join a new silo to the cluster (scale-out).

        The placement ring is updated immediately, so new calls route
        to the new silo at once; activations the ring reassigned are
        live-migrated to it in the background.
        """
        silo = self._new_silo(name)
        self.membership.joins += 1
        self._log_membership("join", silo)
        self.env.process(self._rebalance_for(silo),
                         name=f"rebalance:{silo.name}")
        return silo

    def drain_candidate(self) -> str | None:
        """The silo an untargeted drain retires: the newest one still
        accepting activations.  Silos join in list order, so scale-in
        unwinds scale-out deterministically."""
        running = [silo.name for silo in self.silos
                   if silo.accepting_activations]
        return running[-1] if running else None

    def drain_silo(self, silo: Silo | str) -> "Event":
        """Gracefully retire a silo (scale-in / rolling restart).

        Returns the drain process: it completes when every activation
        has finished its queued work and been handed off, leaving the
        silo ``stopped``.
        """
        silo = self._resolve_silo(silo)
        if not silo.alive:
            raise SiloUnavailable(f"{silo.name} is already {silo.state}")
        silo.state = SiloState.DRAINING
        self.placement.remove_silo(silo)
        self.membership.drains += 1
        self._log_membership("drain", silo)
        return self.env.process(self._drain(silo),
                                name=f"drain:{silo.name}")

    def crash_silo(self, silo: Silo | str) -> Silo:
        """Fail-stop a silo, discarding its grains' state.

        The silo stops processing immediately: mid-execution calls fail
        with ``SiloUnavailable`` and every activation loses its state
        (counted in ``membership.state_loss_events``).  The
        membership view only evicts the silo after
        ``failure_detection_delay``; until then the ring keeps routing
        to it and callers see unavailability — the outage window.  At
        eviction, messages that were queued (never started, so no
        side effects) are re-placed onto the surviving owners.
        """
        silo = self._resolve_silo(silo)
        if not silo.alive:
            raise SiloUnavailable(f"{silo.name} is already {silo.state}")
        queued, discarded = silo.crash()
        self.membership.crashes += 1
        self.membership.state_loss_events += len(discarded)
        for activation in discarded:
            if activation.inflight:
                self.membership.unavailable_failures += \
                    len(activation.inflight)
        self._log_membership("crash", silo)
        if FAILURE_DETECTION_DELAY > 0:
            self.env.process(self._evict_after_detection(silo, queued),
                             name=f"detect:{silo.name}")
        else:
            self._evict(silo, queued)
        return silo

    def _evict_after_detection(self, silo: Silo, queued: list[Message]):
        yield self.env.timeout(FAILURE_DETECTION_DELAY)
        self._evict(silo, queued)

    def _evict(self, silo: Silo, queued: list[Message]) -> None:
        """Remove a crashed silo from the membership view and re-place
        the work that died queued on it."""
        if silo in self.placement.silos:
            self.placement.remove_silo(silo)
        self._log_membership("evicted", silo)
        for message in queued:
            if message._value is not PENDING:
                continue  # the caller already saw a failure
            message.attempts += 1
            self.membership.reroutes += 1
            self._route(message, caller_silo=None)

    def _drain(self, silo: Silo):
        """Hand off every activation, then mark the silo stopped."""
        while silo.activations:
            progressed = False
            for activation in list(silo.activations.values()):
                if activation.mailbox or activation.busy:
                    continue
                yield from self._handoff(silo, activation)
                progressed = True
            if silo.activations and not progressed:
                yield self.env.timeout(HANDOFF_POLL)
        silo.state = SiloState.STOPPED
        self._log_membership("stopped", silo)

    def _rebalance_for(self, new_silo: Silo):
        """Hand off activations the ring reassigned to ``new_silo``.

        Routing pins existing activations to their directory entry, so
        until a grain is handed off its traffic keeps flowing to the
        old owner — migration never races message delivery.  Patience
        per grain is bounded: a grain that refuses to go quiet simply
        stays pinned where it is (suboptimal placement, not an error).
        """
        for silo in self.silos:
            if silo is new_silo or not silo.alive:
                continue
            moved = [activation
                     for (type_name, key), activation
                     in silo.activations.items()
                     if self._owner_of(type_name, key) is new_silo]
            for activation in moved:
                for _ in range(50):
                    if (activation.collected or not silo.alive
                            or not new_silo.accepting_activations):
                        break
                    if activation.mailbox or activation.busy:
                        yield self.env.timeout(HANDOFF_POLL)
                        continue
                    yield from self._handoff(silo, activation)

    def _handoff(self, silo: Silo, activation) -> typing.Generator:
        """Move one quiet activation off ``silo``.

        The grain is *live-migrated*: the grain object moves to the new
        owner with its in-memory state, paying one state-transfer hop.
        Only when no live owner exists is the state lost.  Callers
        hand over quiet activations only (empty mailbox, nothing in
        flight).
        """
        if activation.collected:
            return
        grain = activation.grain
        type_name = type(grain).__name__
        target = self._owner_of(type_name, grain.key)
        if target is None or target is silo or not \
                target.accepting_activations:
            silo.deactivate(type_name, grain.key)
            self.membership.state_loss_events += 1
            return
        # One network hop for the state transfer, then an atomic (in
        # simulated time) deactivate-and-adopt so no message can land
        # between the two owners.
        yield self.env.timeout(self.costs.remote_latency)
        if (activation.collected or activation.mailbox or activation.busy
                or not target.accepting_activations):
            # The grain got busy — or the target itself crashed or
            # started draining — while the transfer was in flight.
            # Leave the activation in place: the caller's sweep
            # retries and recomputes the owner.
            return
        silo.deactivate(type_name, grain.key)
        target.adopt(self, grain)
        self.membership.migrations += 1
        self.membership.volatile_handoffs += 1

    def _owner_of(self, type_name: str, key: str) -> Silo | None:
        try:
            return self.placement.place(type_name, key)
        except NoLiveSilos:
            return None

    def membership_stats(self) -> dict:
        """Membership counters plus the current cluster shape."""
        return dict(self.membership.as_dict(),
                    epoch=self.placement.epoch,
                    live_silos=len(self.live_silos),
                    total_silos=len(self.silos))

    def control_stats(self) -> dict:
        """The uniform control-plane counters (``platform_stats()``
        fields, see :mod:`repro.control.signals`).  ``silos_live``
        counts serving silos — a draining silo still serves until its
        handoff completes, so it is live *and* counted draining."""
        return {
            "silos_live": len(self.live_silos),
            "silos_draining": sum(1 for silo in self.silos
                                  if silo.state == SiloState.DRAINING),
            "silos_total": len(self.silos),
            "resident": self.total_activations,
            "paged": len(self._paged),
            "messages": self.messages_sent,
        }

    # ------------------------------------------------------------------
    # references and routing
    # ------------------------------------------------------------------
    def _new_ref(self, grain_type: type[Grain] | str,
                 key: str) -> GrainRef:
        """Build the reference ``grain_ref`` interns (a type name
        resolves to its registered type, and so to the same object)."""
        if isinstance(grain_type, str):
            resolved = self._grain_types.get(grain_type)
            if resolved is None:
                raise UnknownGrainType(grain_type)
            return self.grain_ref(resolved, key)
        return GrainRef(self, grain_type, key)

    def _target_for(self, ref: GrainRef) -> Silo:
        """Where to route a message: the directory pins routing to the
        live activation (Orleans grain-directory semantics); the ring
        decides only for grains without one.  May raise NoLiveSilos.
        ``_route`` and ``_deliver`` inline this rule."""
        host = self.directory.hosts.get(ref.ident)
        if host is not None and host.alive:
            return host
        return self.placement.place(ref.type_name, ref.key)

    def activation_of(self, ref: GrainRef):
        """The live activation behind ``ref`` (creating it if needed)."""
        return self._target_for(ref).activation_for(self, ref.grain_type,
                                                    ref.key)

    def grain_instance(self, ref: GrainRef) -> Grain:
        """Direct access to the grain object (tests, audits and the
        installation of lazily generated records)."""
        return self._target_for(ref).activation_for(
            self, ref.grain_type, ref.key).grain

    def _route(self, message: Message, caller_silo: Silo | None) -> None:
        """Send (or re-send) ``message`` toward the grain's owner.

        Failures never escape as exceptions: an empty ring or an
        exhausted retry budget fails the message, so the caller
        observes a failed call, not a crashed driver.
        """
        ref = message.ref  # a routed message always has one
        config = self.config
        costs = self.costs
        # ``_target_for``, inline: the directory's live host, else the
        # ring.  ``epoch`` records which one chose, for ``_deliver``.
        target = self.directory.hosts.get(ref.ident)
        if target is None or not target.alive:
            try:
                target = self.placement.place(ref.type_name, ref.key)
            except NoLiveSilos as error:
                self.membership.unavailable_failures += 1
                self._fail_after(message, costs.remote_latency, error)
                return
            message.epoch = self.placement.epoch
        else:
            message.epoch = -1
        if caller_silo is target:
            latency = costs.local_latency
        else:
            latency = (costs.remote_latency
                       + self._rng.random() * costs.remote_jitter)
        self.messages_sent += 1
        if (config.drop_probability > 0.0
                and self._rng.random() < config.drop_probability):
            self.messages_dropped += 1
            failure = MessageDropped(
                f"{ref.type_name}/{ref.key}.{message.method} "
                f"lost in transit")
            self._fail_after(message, latency, failure)
            return
        message.reply_latency = latency
        # A raw pooled-event callback, not a process: message transit
        # has no body to suspend, and a full Process costs two extra
        # events per hop on the hottest path in the simulator.
        # ``env.call_after(latency, partial(self._deliver, ...))``,
        # inline: the same pool, sequence and heap steps in the same
        # order.
        env = self.env
        env.pool_acquires += 1
        pool = env._pool
        if pool:
            env.pool_hits += 1
            event = pool.pop()
        else:
            event = PooledEvent(env)
        event._value = None
        event.callbacks.append(  # type: ignore[union-attr]
            functools.partial(self._deliver, message, target))
        env._seq = seq = env._seq + 1
        if latency > 0.0:
            _heappush(env._queue, (env.now + latency, seq, event))
        else:
            env._bucket.append((seq, event))

    def _deliver(self, message: Message, target: Silo,
                 _event: "Event") -> None:
        """Hand the message to ``target`` — or re-place it if the
        cluster moved underneath the send."""
        ref = message.ref  # a routed message always has one
        activation = target.activations.get(ref.ident)
        if activation is None:
            # Not hosted there: re-derive the route on arrival
            # (``_target_for``, inline).  The grain may have migrated
            # (directory moved) or the target died/drained while the
            # message was on the wire; an unchanged ring still says
            # ``target``.
            host = self.directory.hosts.get(ref.ident)
            if host is None or not host.alive:
                host = target
                if message.epoch != self.placement.epoch:
                    try:
                        host = self.placement.place(ref.type_name, ref.key)
                    except NoLiveSilos:
                        host = None
            if host is target and target.accepting_activations:
                activation = target.activation_for(self, ref.grain_type,
                                                   ref.key)
        if activation is not None and target.alive:
            # Most recently used: move to the end of the silo's LRU order.
            lru = target.lru
            del lru[activation]
            lru[activation] = None
            if (activation.mailbox or not activation.started
                    or activation.defunct
                    or (activation.inflight
                        and not activation.grain.reentrant)):
                # Whatever holds it up — ``_start``, or the turn in
                # flight that a non-empty mailbox implies — pumps the
                # mailbox.
                activation.mailbox.append(message)
            else:
                # The common case: the turn starts now, as ``_pump``
                # would start it.
                message._charge(activation)
            return
        # Dead, draining-without-activation, or stale target: re-place.
        if message.attempts >= MAX_DELIVERY_ATTEMPTS:
            self.membership.unavailable_failures += 1
            if message._value is PENDING:
                message.fail(SiloUnavailable(
                    f"{ref.type_name}/{ref.key}.{message.method} "
                    f"undeliverable after {message.attempts} attempts"))
            return
        message.attempts += 1
        self.membership.reroutes += 1
        self._route(message, caller_silo=None)

    def _fail_after(self, message: Message, delay: float,
                    error: BaseException) -> None:
        def fail_later(_event):
            if message._value is PENDING:
                message.fail(error)
        self.env.call_after(delay, fail_later)

    # ------------------------------------------------------------------
    # working-set control (LRU deactivation under an activation budget)
    # ------------------------------------------------------------------
    def _arm_sweep(self, _event: "Event | None" = None) -> None:
        """Schedule the next working-set sweep."""
        self.env.call_after(WORKING_SET_SWEEP, self._sweep)

    def _sweep(self, _event: "Event") -> None:
        """Keep each silo at or below ``activation_limit`` residents.

        Every ``WORKING_SET_SWEEP`` seconds the silos are walked in list
        order (by index: a silo that joins mid-sweep is swept too) and
        the least-recently-used quiet grains above the budget page out
        to the pager store, one write at a time; they are restored on
        re-activation.  Grains that refuse to page (no ``paged_attr``,
        or locks held) stay resident — the budget is a target, not a
        hard cap.  The sweep is a chain of kernel callbacks, not a
        process: one entry per tick and one per pager write, and the
        next tick is armed after the last write.
        """
        self._sweep_from(0, iter(()))

    def _sweep_from(self, index: int,
                    victims: typing.Iterator) -> None:
        """Page out the rest of ``victims`` (picked on
        ``silos[index - 1]``), then the victims of ``silos[index:]``;
        return early while a write is in flight — its completion calls
        back in here."""
        limit = self.config.activation_limit
        silos = self.silos
        while True:
            for activation in victims:
                if self._page_out(activation, index, victims):
                    return
            if index == len(silos):
                break
            silo = silos[index]
            index += 1
            if not silo.accepting_activations:
                continue  # draining silos hand off their own grains
            excess = len(silo.activations) - limit
            if excess > 0:
                victims = iter(self._lru_victims(silo, excess))
        self._arm_sweep()

    def _lru_victims(self, silo: Silo, count: int) -> list:
        """The ``count`` least-recently-used quiet activations (empty
        mailbox, nothing in flight), read off the front of
        ``silo.lru``: the cost follows the activations walked, not the
        resident population, and no sort runs.  Activations last used
        at the same sim instant come in enqueue order."""
        victims = []
        for activation in silo.lru:
            if not activation.mailbox and not activation.inflight:
                victims.append(activation)
                if len(victims) == count:
                    break
        return victims

    def _page_out(self, activation, index: int,
                  victims: typing.Iterator) -> bool:
        """Start evicting one activation under the working-set budget:
        the grain snapshots its ``paged_attr`` and the pager write
        starts.  False when there is nothing to write (already gone, or
        not pageable: it stays resident)."""
        if activation.collected:
            return False
        grain = activation.grain
        paged = grain.page_out()
        if paged is None:
            return False
        ident = (type(grain).__name__, grain.key)
        self.pager.write(ident, paged, functools.partial(
            self._paged_out, activation, ident, paged, index, victims))
        return True

    def _paged_out(self, activation, ident: tuple[str, str], paged: dict,
                   index: int, victims: typing.Iterator) -> None:
        """The write is done: deactivate, then resume the sweep.

        If the grain became busy while the write was in flight the
        eviction aborts and — crucially — the ident is never registered
        as paged, so the stale snapshot is unreachable and a later
        sweep retries.  Work may also have started *and* finished
        inside the write window, leaving the grain quiet but the
        snapshot stale: it is re-taken before the eviction commits.
        """
        if not (activation.collected or activation.mailbox
                or activation.inflight):
            fresh = activation.grain.page_out()
            if fresh is not None:  # None: mid-transaction again
                if fresh != paged:
                    self.pager.store(ident, fresh)
                activation.silo.deactivate(*ident)
                self._paged.add(ident)
                self.working_set.evictions += 1
        self._sweep_from(index, victims)

    def is_paged(self, grain: Grain) -> bool:
        """True when a paged snapshot awaits ``grain``'s re-activation."""
        return (type(grain).__name__, grain.key) in self._paged

    def page_in(self, grain: Grain) -> typing.Generator:
        """Restore paged state at re-activation (process helper,
        called from ``Activation._start``)."""
        ident = (type(grain).__name__, grain.key)
        if ident not in self._paged:
            return
        self._paged.discard(ident)
        payload = yield from self.pager.read(ident)
        if payload is not None:
            grain.page_in(payload)
            self.working_set.reloads += 1

    def paged_states(self) -> dict[tuple[str, str], dict]:
        """Paged-out state for audits (stored payloads: read only)."""
        return {ident: self.pager.peek(ident) for ident in self._paged}

    def working_set_stats(self) -> dict:
        """Working-set counters plus the current resident population."""
        return dict(self.working_set.as_dict(),
                    resident=self.total_activations,
                    paged=len(self._paged),
                    limit=self.config.activation_limit)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_activations(self) -> int:
        return sum([len(silo.activations) for silo in self.silos])

    def utilisation(self) -> dict[str, float]:
        return {silo.name: silo.utilisation() for silo in self.silos}

"""Silos and grain activations.

A silo hosts grain activations and owns a fixed number of CPU cores.
Every grain-method invocation holds one of its hosting silo's cores for
the cost model's ``grain_cpu``; with every core busy, turns queue FIFO
for the next free one, so a silo under heavy load queues work and
latency climbs — the saturation behaviour the benchmark measures.

Silos have a lifecycle::

    running ──drain──▶ draining ──(handoff done)──▶ stopped
       │
       └──crash──▶ crashed

A *draining* silo accepts no new activations (the placement ring has
already forgotten it) but finishes the work its existing activations
have queued before handing them off.  A *crashed* silo discards
everything on the spot: queued messages are re-placed by the cluster,
mid-execution calls fail with
:class:`~repro.actors.errors.SiloUnavailable`, and grain state is
simply gone — the measurable anomaly the fault scenarios count.
"""

from __future__ import annotations

import collections
import typing
from heapq import heappush as _heappush
from types import GeneratorType as _GeneratorType

from repro.actors.errors import GrainCallError, NoLiveSilos, SiloUnavailable
from repro.runtime.events import PENDING, Event, PooledEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.cluster import Cluster
    from repro.actors.grain import Grain
    from repro.actors.placement import GrainDirectory
    from repro.runtime import Environment


class SiloState:
    """Lifecycle states of a silo (plain strings for cheap checks)."""

    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"
    CRASHED = "crashed"


#: Delivery attempts per message before the caller sees
#: ``SiloUnavailable`` (first send + rerouting hops).
MAX_DELIVERY_ATTEMPTS = 4


class Message(Event):
    """One grain-method invocation, from send to reply: the message on
    the wire, its own turn on whichever activation it reaches — CPU
    charge, method body, reply — driven by kernel callbacks, not by a
    process, and the caller's promise.  Identity semantics: the same
    object survives rerouting across silos and is what ``call``
    returns; it fires with the method's outcome.

    A grain method that never waits costs three timeline entries
    (delivery, CPU hold, the reply: the message itself, triggered at
    the end of the turn and fired at the caller); a generator method
    adds exactly the events it yields.  A ``oneway`` message (a
    ``tell``) is defused from birth and never triggered by its turn,
    so it costs two.  Each entry is pushed with the kernel's own pool,
    sequence and heap steps and has one callback: ``Cluster._route``
    builds the message and pushes its delivery, :meth:`_arrive` the
    CPU hold, :meth:`_step` the reply.  A call costs four Python
    frames: ``call``, ``_route``, ``_arrive``, ``_step``.  Two rules of
    the actor model live in :meth:`_step`:

    * ``grain.current_txn`` is restored before *every* resumption.
      Reentrant grains interleave turns on one grain instance, so
      without this a method resuming after a wait would read (and
      charge its writes to) whichever transaction ran last — the
      actor-runtime analogue of async-local context flow.
    * A crashed silo is fail-stop: once the activation is defunct the
      body is never resumed (the generator is closed instead), so no
      side effect — nested call, publish, write — leaks from beyond
      the grave.  The message was failed at crash time.

    No ``__init__``: ``Cluster._route`` stores every field.  ``ref``
    is kept so the cluster can re-place the message after a
    membership change, ``attempts`` bounds that rerouting, ``target``
    is the silo this hop goes to and ``epoch`` the ring epoch that
    chose it (-1 if the directory chose); ``activation`` is set when
    the turn takes (or queues for) a core.
    """

    __slots__ = ("method", "args", "kwargs", "txn", "reply_latency", "ref",
                 "attempts", "epoch", "target", "activation", "generator",
                 "oneway")

    def _arrive(self, _event: "Event | None") -> None:
        """Start this message's turn: the callback of its delivery
        entry, or a start from the mailbox (``Activation._pump`` sets
        ``activation`` and passes None).  The only place a turn takes
        a core.

        On delivery the route is re-checked — the grain may have
        migrated or its silo died or drained while the message was on
        the wire: a stale target re-places the message, and a grain
        that cannot start the turn now queues it in its mailbox.  A
        free core is taken at once and held for ``grain_cpu``, one
        pooled entry whose callback is :meth:`_step`; with every core
        busy the turn joins the silo's FIFO ``waiting`` queue, and a
        finishing turn hands it its core (:meth:`_granted`)."""
        activation = self.activation
        if activation is None:
            ref = self.ref
            cluster = ref.cluster
            target = self.target
            activation = target.activations.get(ref.ident)
            if activation is None:
                # Not hosted there: ``Cluster._target_for``, inline.  An
                # unchanged ring still says ``target``.
                host = cluster.directory.hosts.get(ref.ident)
                if host is None or not host.alive:
                    host = target
                    if self.epoch != cluster.placement.epoch:
                        try:
                            host = cluster.placement.place(ref.type_name,
                                                           ref.key)
                        except NoLiveSilos:
                            host = None
                if host is target and target.accepting_activations:
                    activation = target.activation_for(
                        cluster, ref.grain_type, ref.key)
            if activation is None or not target.alive:
                # Dead, draining-without-activation, or stale: re-place.
                if self.attempts >= MAX_DELIVERY_ATTEMPTS:
                    cluster.membership.unavailable_failures += 1
                    if self._value is PENDING:
                        self.fail(SiloUnavailable(
                            f"{ref.type_name}/{ref.key}.{self.method} "
                            f"undeliverable after {self.attempts} "
                            f"attempts"))
                    return
                self.attempts += 1
                cluster.membership.reroutes += 1
                cluster._route(ref, self.method, message=self)
                return
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
                activation.mailbox.append(self)
                return
            self.activation = activation
        activation.inflight.add(self)
        silo = activation.silo
        if silo.busy < silo.cores:
            cost = activation.grain.cluster.costs.grain_cpu
            env = self.env
            now = env.now  # Silo.utilisation()'s accounting, inline
            silo.busy_time += silo.busy * (now - silo.last_change)
            silo.last_change = now
            silo.busy += 1
            # env.call_after(cost, self._step), inline: the same pool,
            # sequence and heap steps in the same order.
            env.pool_acquires += 1
            pool = env._pool
            if pool:
                env.pool_hits += 1
                event = pool.pop()
            else:
                event = PooledEvent(env)
            event._value = None
            event.callbacks.append(self._step)  # type: ignore[union-attr]
            env._seq = seq = env._seq + 1
            if cost > 0.0:
                _heappush(env._queue, (now + cost, seq, event))
            else:
                env._bucket.append((seq, event))
        else:
            silo.waiting.append(self)

    def _granted(self, _event: "Event") -> None:
        """A finishing turn handed this queued turn its core: hold it
        for ``grain_cpu``, then :meth:`_step`."""
        self.env.call_after(self.activation.grain.cluster.costs.grain_cpu,
                            self._step)

    def _step(self, event: "Event") -> None:
        """The callback of the turn's CPU hold and of every event its
        body waits on.  After the hold: free the core — or hand it to
        the oldest queued turn, one zero-delay entry that starts that
        turn's hold — and call the method.  A generator body is
        advanced to its next wait, here and on every resumption.  When
        the body is done the turn ends here: answer the caller, start
        the next message."""
        activation = self.activation
        generator = self.generator
        if generator is None:
            silo = activation.silo
            env = self.env
            now = env.now  # Silo.utilisation()'s accounting, inline
            silo.busy_time += silo.busy * (now - silo.last_change)
            silo.last_change = now
            if silo.waiting:
                env.call_after(0.0, silo.waiting.popleft()._granted)
            else:
                silo.busy -= 1
            if activation.defunct:
                return  # crashed while waiting for a core; already failed
            grain = activation.grain
            method = getattr(grain, self.method, None)
            if method is None or not callable(method):
                value, ok = GrainCallError(
                    f"{type(grain).__name__} has no method "
                    f"{self.method!r}"), False
            else:
                grain.current_txn = self.txn
                try:
                    value, ok = method(*self.args, **self.kwargs), True
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    value, ok = exc, False
                if type(value) is _GeneratorType:
                    # The hold event is an ordinary success carrying
                    # None: resuming on it is the first ``send(None)``.
                    self.generator = generator = value
        elif activation.defunct:
            event.defuse()  # a failure meant for the abandoned body
            generator.close()
            return
        if generator is not None:
            activation.grain.current_txn = self.txn
            try:
                if event._ok:
                    waited = generator.send(event._value)
                else:
                    event.defuse()
                    waited = generator.throw(event._value)
            except StopIteration as stop:
                value, ok = stop.value, True
            except BaseException as exc:  # noqa: BLE001 - forwarded
                value, ok = exc, False
            else:
                if isinstance(waited, Event):
                    if waited.callbacks is not None:
                        waited.callbacks.append(self._step)
                    else:
                        # Already fired: resume on the next kernel step,
                        # exactly as a process waiting on a processed
                        # event would.
                        self.env.call_after(
                            0.0, lambda _event: self._step(waited))
                    return
                generator.close()
                value, ok = RuntimeError(
                    f"{self.method!r} yielded {waited!r}, "
                    f"which is not an Event"), False
        activation.grain.current_txn = None
        activation.inflight.discard(self)
        if ok:
            activation.processed += 1
        if self._value is PENDING and not self.oneway:
            # The message itself travels back: triggered now, fired at
            # arrival.  (Already triggered: the silo crashed under this
            # call and failed it; no late outcome escapes a dead silo.)
            # ``self.trigger_after(self.reply_latency, value, ok)``,
            # inline; the cost model rejects a negative latency.
            env = self.env
            env._seq = seq = env._seq + 1
            latency = self.reply_latency
            if latency > 0.0:
                _heappush(env._queue, (env.now + latency, seq, self))
            else:
                env._bucket.append((seq, self))
            self._ok = ok
            self._value = value
        if activation.mailbox:
            activation._pump()


class Activation:
    """A live grain instance plus its mailbox.

    No process serves the mailbox: a message that may start at once
    (always on a reentrant grain, when nothing is mid-execution
    otherwise) starts its turn in the delivery callback, and a
    finishing turn starts the next queued message itself.
    """

    def __init__(self, env: "Environment", silo: "Silo",
                 grain: "Grain", adopted: bool = False) -> None:
        self.env = env
        self.silo = silo
        self.grain = grain
        self.mailbox: collections.deque[Message] = collections.deque()
        self.processed = 0
        self.collected = False
        #: Set when the hosting silo crashes: turns stop, queued work
        #: is re-placed and late replies are suppressed.
        self.defunct = False
        #: Messages currently being executed (≤1 unless reentrant).
        self.inflight: set[Message] = set()
        #: False while ``_start`` still reads a paged snapshot back
        #: (messages wait in the mailbox).  With nothing to read —
        #: always so for an ``adopted`` grain, whose in-memory state
        #: travelled with it — the activation serves from construction.
        self.started = adopted or (
            (type(grain).__name__, grain.key) not in grain.cluster._paged)
        if not self.started:
            env.process(self._start(), name=f"activate:{grain!r}")

    @property
    def busy(self) -> bool:
        """True while at least one message is mid-execution."""
        return bool(self.inflight)

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start every queued message that may run now: all of them on
        a reentrant grain, one at a time otherwise."""
        if not self.started or self.defunct:
            return
        mailbox = self.mailbox
        reentrant = self.grain.reentrant
        while mailbox and (reentrant or not self.inflight):
            message = mailbox.popleft()
            message.activation = self
            message._arrive(None)

    # ------------------------------------------------------------------
    def _start(self):
        """Process: reload the grain's paged snapshot, then serve."""
        yield from self.grain.cluster.page_in(self.grain)
        if self.defunct:
            return  # silo crashed during the read
        self.started = True
        self._pump()


class Silo:
    """One node of the cluster: CPU cores plus hosted activations.

    ``lru`` holds the same activations as ``activations``, ordered
    least recently used first: an activation enters at the end when it
    is created or adopted and moves to the end each time a message is
    enqueued on it, so dict order doubles as the LRU order and the
    working-set sweep reads its victims off the front.  Activations
    last used at the same sim instant are in enqueue order.
    """

    def __init__(self, env: "Environment", name: str, cores: int) -> None:
        self.env = env
        self.name = name
        self.cores = cores
        #: Cores held by a turn; a core passes from a finishing turn
        #: straight to the oldest of the ``waiting`` turns.
        self.busy = 0
        self.waiting: collections.deque[Message] = collections.deque()
        #: Core-seconds held up to ``last_change`` (see utilisation()).
        self.busy_time = 0.0
        self.last_change = 0.0
        self.state = SiloState.RUNNING
        self.activations: dict[tuple[str, str], Activation] = {}
        self.lru: dict[Activation, None] = {}
        #: Set by the cluster so activation bookkeeping reaches the
        #: grain directory (None for silos used standalone in tests).
        self.directory: "GrainDirectory | None" = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Lifecycle state; assigning it sets ``alive`` and
        ``accepting_activations``, which routing reads per message."""
        return self._state

    @state.setter
    def state(self, state: str) -> None:
        self._state = state
        #: Processing work (running or finishing a drain).
        self.alive = state in (SiloState.RUNNING, SiloState.DRAINING)
        #: Willing to host *new* activations.
        self.accepting_activations = state == SiloState.RUNNING

    def crash(self) -> tuple[list[Message], list[Activation]]:
        """Fail-stop this silo.

        Returns ``(queued, discarded)``: the mailbox messages that had
        not started executing (safe to re-place — no effects yet) and
        the discarded activations.  Mid-execution messages have their
        promises failed with :class:`SiloUnavailable` immediately; any
        late outcome from their abandoned generators is suppressed.
        """
        self.state = SiloState.CRASHED
        queued: list[Message] = []
        discarded: list[Activation] = []
        for activation in self.activations.values():
            activation.defunct = True
            activation.collected = True
            queued.extend(activation.mailbox)
            activation.mailbox.clear()
            for message in list(activation.inflight):
                if message._value is PENDING:
                    message.fail(SiloUnavailable(
                        f"{self.name} crashed during "
                        f"{type(activation.grain).__name__}/"
                        f"{activation.grain.key}.{message.method}"))
            discarded.append(activation)
        if self.directory is not None:
            self.directory.drop_silo(self)
        self.activations.clear()
        self.lru.clear()
        return queued, discarded

    # ------------------------------------------------------------------
    # activations
    # ------------------------------------------------------------------
    def activation_for(self, cluster: "Cluster",
                       grain_type: type["Grain"], key: str) -> Activation:
        """Find or create the activation for (grain_type, key)."""
        ident = (grain_type.__name__, key)
        activation = self.activations.get(ident)
        if activation is None:
            if not self.accepting_activations:
                raise SiloUnavailable(
                    f"{self.name} is {self.state}; cannot activate "
                    f"{grain_type.__name__}/{key}")
            grain = grain_type()
            grain.env = self.env
            grain.cluster = cluster
            grain.silo = self
            grain.key = key
            activation = self._file(cluster, ident,
                                    Activation(self.env, self, grain))
        return activation

    def adopt(self, cluster: "Cluster", grain: "Grain") -> Activation:
        """Host a live-migrated grain, in-memory state and all.

        Used by drain and post-join rebalancing: the grain object moves
        from its old silo with its volatile state intact (the old
        activation must already be deactivated).  If the grain was
        re-activated here in the meantime, the existing activation
        wins and the migrated copy is dropped.
        """
        ident = (type(grain).__name__, grain.key)
        existing = self.activations.get(ident)
        if existing is not None:
            return existing
        if not self.accepting_activations:
            raise SiloUnavailable(
                f"{self.name} is {self.state}; cannot adopt "
                f"{ident[0]}/{ident[1]}")
        grain.silo = self
        return self._file(cluster, ident,
                          Activation(self.env, self, grain, adopted=True))

    def _file(self, cluster: "Cluster", ident: tuple[str, str],
              activation: Activation) -> Activation:
        """Host a new activation: the silo's tables and LRU order, the
        cluster's working-set counters, then the grain directory."""
        self.activations[ident] = activation
        self.lru[activation] = None
        stats = cluster.working_set
        stats.activations += 1
        resident = sum(map(len, cluster._residents))
        if resident > stats.peak_resident:
            stats.peak_resident = resident
        if self.directory is not None:
            self.directory.hosts[ident] = self
        return activation

    def deactivate(self, grain_type_name: str, key: str) -> bool:
        """Drop an activation; False when there was none to drop."""
        ident = (grain_type_name, key)
        activation = self.activations.pop(ident, None)
        if activation is None:
            return False
        del self.lru[activation]
        activation.collected = True
        if self.directory is not None:
            self.directory.hosts.pop(ident, None)
        return True

    def utilisation(self) -> float:
        """Average fraction of the cores busy since the start of the
        run."""
        now = self.env.now
        self.busy_time += self.busy * (now - self.last_change)
        self.last_change = now
        if now <= 0:
            return 0.0
        return self.busy_time / (now * self.cores)

    def __repr__(self) -> str:
        return (f"<Silo {self.name} {self.state} "
                f"activations={len(self.activations)}>")

"""The Statefun runtime: workers, checkpoints, failure and replay."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing
import zlib
from heapq import heappush as _heappush

from repro.config import AppConfig
from repro.dataflow.function import Context, StatefulFunction
from repro.dataflow.messages import FunctionMessage
from repro.runtime.environment import SimulationError
from repro.runtime.events import PENDING, Event, PooledEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment
    from repro.runtime.process import Process


@dataclasses.dataclass
class _Checkpoint:
    """An aligned snapshot.

    ``worker_states`` maps each address to a shallow copy of its state's
    top level.  Function state is a value (see :class:`Context`), so
    everything below the top level is shared with the live state and
    with other checkpoints and is never mutated; a restore hands each
    worker fresh top-level copies, which it may write in place.  The
    maps are built incrementally (unchanged addresses share their copy
    with the previous checkpoint) and must never be mutated, with one
    exception: a freshly installed address
    (:meth:`StatefunRuntime.install`); each checkpoint owns its maps,
    so that touches no other snapshot.
    """

    time: float
    ingress_offset: int
    worker_states: list[dict]
    worker_queues: list[list[FunctionMessage]]


class Worker:
    """One partition: a queue and per-address state, served one message
    at a time, as a single-threaded Flink subtask serves its input.

    No process serves the queue: a worker is one kernel callback,
    :meth:`_step`, that runs the message whose CPU charge just ended
    and then charges the next one as one timed entry.  Only one
    message is ever in service, so no core count is modelled
    (``AppConfig.cores_per_silo`` does not apply).  Its timeline
    entries are those of the process it replaced: a zero-delay entry
    at construction (the bootstrap), a zero-delay wake-up when an idle
    worker gets a message (pushed by ``StatefunRuntime._arrive``), the
    CPU charge, and a callback on the runtime's resume event while
    paused.
    """

    def __init__(self, env: "Environment", runtime: "StatefunRuntime",
                 index: int) -> None:
        self.env = env
        self.runtime = runtime
        self.index = index
        self.queue: collections.deque[FunctionMessage] = collections.deque()
        self.state: dict[tuple[str, str], dict] = {}
        #: Addresses whose state may have changed since the last
        #: checkpoint; only these are re-snapshotted (dirty tracking is
        #: conservative: any state access marks the address).
        self.dirty: set[tuple[str, str]] = set()
        self.processed = 0
        #: Cold tier (RocksDB-backend analogue): state dicts spilled
        #: above the runtime's ``activation_limit``.
        self.cold: dict[tuple[str, str], dict] = {}
        self.cold_evictions = 0
        self.cold_reloads = 0
        self.peak_resident = 0
        self.addresses_created = 0
        #: True while parked on an empty queue: the next message wakes
        #: the worker with one zero-delay timeline entry.
        self.idle = False
        #: The message in its CPU charge and its function.
        self._message: FunctionMessage | None = None
        self._function: StatefulFunction | None = None
        #: The one context every invocation on this worker is handed,
        #: refilled per message (see :class:`Context`).
        self.context = Context(runtime, self)
        env.call_after(0.0, self._step)

    def state_for(self, address: tuple[str, str]) -> dict:
        self.dirty.add(address)
        state = self.state.pop(address, None)
        if state is None:
            state = self.cold.pop(address, None)
            if state is not None:
                self.cold_reloads += 1
        if state is None:
            state = {}
            self.addresses_created += 1
        # Re-insert at the end: dict order doubles as the LRU order the
        # spill sweep walks.
        self.state[address] = state
        if len(self.state) > self.peak_resident:
            self.peak_resident = len(self.state)
        limit = self.runtime.config.activation_limit
        if limit is not None and len(self.state) > limit:
            self._spill(limit, keep=address)
        return state

    def _spill(self, limit: int, keep: tuple[str, str]) -> None:
        """Move LRU clean addresses to the cold tier, oldest first.

        Dirty addresses stay hot — their latest state is not yet in a
        checkpoint, and the incremental snapshotter only re-copies
        dirty ones, so spilling them would checkpoint stale state.  The
        address just requested stays hot too.  When everything above
        budget is dirty, the worker simply runs over budget until the
        next checkpoint cleans it.
        """
        excess = len(self.state) - limit
        victims = list(itertools.islice(
            (address for address in self.state
             if address not in self.dirty
             and (keep is None or address != keep)), excess))
        for address in victims:
            self.cold[address] = self.state.pop(address)
            self.cold_evictions += 1

    def _step(self, _event: Event | None = None) -> None:
        """The worker's one callback: run the message whose CPU charge
        just ended, if any, then take the next one — wait out a pause,
        park on an empty queue, or start its charge.  State is fetched
        only after the charge, so a restore during it is seen."""
        message = self._message
        runtime = self.runtime
        if message is not None:
            self._message = None
            address = message.address
            states = self.state
            # A hot hit without a resident budget is state_for inline:
            # the peak is still checked, since a restore or a rescale
            # fills ``state`` without counting it.
            state = (None if runtime.config.activation_limit
                     else states.pop(address, None))
            if state is None:
                state = self.state_for(address)
            else:
                self.dirty.add(address)
                states[address] = state
                if len(states) > self.peak_resident:
                    self.peak_resident = len(states)
            context = self.context
            context.message = message
            context.key = message.target_key
            context.request_id = message.request_id
            context.state = state
            try:
                result = self._function.invoke(context, message.payload)
                self.state[address] = context.state
            except Exception as exc:
                raise SimulationError(
                    f"function {address} failed on {message!r}") from exc
            if result is not None:
                raise SimulationError(
                    f"function {address} returned {result!r} on {message!r}; "
                    f"a stateful function runs to completion and returns None")
            self.processed += 1
            runtime.messages_processed += 1
        if runtime.paused:
            runtime.resume_event.callbacks.append(self._step)
            return
        if not self.queue:
            self.idle = True
            return
        message = self.queue.popleft()
        function = runtime._functions.get(message.target_type)
        if function is None:
            raise SimulationError(
                f"no function registered for {message.target_type!r}")
        costs = runtime.costs
        cpu_cost = costs.function_cpu + costs.envelope_cpu
        if message.cross_partition:
            cpu_cost += costs.cross_partition_cpu
        self._message = message
        self._function = function
        # env.call_after(cpu_cost, self._step), inline.
        env = self.env
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
        if cpu_cost > 0.0:
            _heappush(env._queue, (env.now + cpu_cost, seq, event))
        else:
            env._bucket.append((seq, event))


class StatefunRuntime:
    """Registry, router and checkpoint coordinator for stateful functions."""

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        self.env = env
        #: The deployment: one partition worker per ``silos``, a
        #: ``checkpoint_interval``, a per-worker ``activation_limit`` of
        #: hot addresses, and the ``costs``.
        self.config = config or AppConfig()
        self.costs = self.config.costs
        #: Routing memo, address -> owning worker; cleared by a rescale.
        self._routes: dict[tuple[str, str], Worker] = {}
        self.workers = [Worker(env, self, index)
                        for index in range(self.config.silos)]
        self._worker_ids = self.config.silos
        self.rescales = 0
        #: Workers scheduled for removal by an in-progress scale-in;
        #: counted from the moment the command is issued so control
        #: signals see the pending drain.
        self.draining_workers = 0
        self._functions: dict[str, StatefulFunction] = {}
        # Exactly-once machinery -----------------------------------------
        #: Ingress messages newer than the last checkpoint offset; the
        #: prefix up to ``ingress_base`` has been compacted away (it can
        #: never be replayed again).
        self.ingress_log: list[FunctionMessage] = []
        self.ingress_base = 0
        self.ingress_compacted = 0
        self._in_flight = 0
        self.paused = False
        self.resume_event: "Event" = env.event()
        self._last_checkpoint: _Checkpoint | None = None
        self.checkpoints_taken = 0
        self.recoveries = 0
        # Egress ----------------------------------------------------------
        self.egress_log: list[tuple[float, str, object]] = []
        self._egress_ids: set[str] = set()
        self._request_waiters: dict[str, "Event"] = {}
        self.messages_processed = 0
        #: Serialise stop-the-world operations (checkpoints, recovery,
        #: rescales): overlapping pauses would corrupt the shared resume
        #: event.  Set while one runs; the rest wait FIFO.
        self._stopped = False
        self._stop_waiters: collections.deque[Event] = collections.deque()
        if self.config.checkpoint_interval > 0:
            env.process(self._checkpoint_loop(), name="checkpointer")

    # ------------------------------------------------------------------
    # registration & routing
    # ------------------------------------------------------------------
    def register(self, type_name: str,
                 function: StatefulFunction) -> None:
        self._functions[type_name] = function

    def worker_for(self, address: tuple[str, str]) -> Worker:
        """The worker owning ``address``: one crc32 per address, then a
        memo hit (the hot paths inline the hit as ``_routes.get``)."""
        worker = self._routes.get(address)
        if worker is None:
            # zlib.crc32 is stable across processes (unlike built-in
            # hash() on strings), keeping partition routing deterministic.
            digest = zlib.crc32(f"{address[0]}/{address[1]}".encode())
            worker = self._routes[address] = \
                self.workers[digest % len(self.workers)]
        return worker

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send_ingress(self, target_type: str, target_key: str,
                     payload: object,
                     request_id: str | None = None) -> FunctionMessage:
        """Inject a message from outside the dataflow (the driver)."""
        message = FunctionMessage(
            self.env, target_type, target_key, payload,
            request_id=request_id, is_ingress=True,
            ingress_offset=self.ingress_base + len(self.ingress_log))
        self.ingress_log.append(message)
        self._deliver_ingress(message)
        return message

    def _deliver_ingress(self, message: FunctionMessage) -> None:
        """Put an ingress (or replayed) message on the wire."""
        self._in_flight += 1
        message.callbacks.append(self._arrive)
        message.trigger_after(self.costs.delivery_latency)

    def _arrive(self, message: FunctionMessage) -> None:
        """A message lands: queue it at its owner, looked up again now
        (a rescale may have moved it), and wake the owner if idle."""
        self._in_flight -= 1
        if self._recovering and message.is_ingress is False:
            # Internal message arriving mid-recovery belongs to the
            # failed epoch; it will be regenerated by replay.
            return
        address = message.address
        worker = self._routes.get(address) or self.worker_for(address)
        worker.queue.append(message)
        if worker.idle:
            worker.idle = False
            # env.call_after(0.0, worker._step), inline.
            env = self.env
            env.pool_acquires += 1
            pool = env._pool
            if pool:
                env.pool_hits += 1
                event = pool.pop()
            else:
                event = PooledEvent(env)
            event._value = None
            event.callbacks.append(worker._step)  # type: ignore[union-attr]
            env._seq = seq = env._seq + 1
            env._bucket.append((seq, event))

    # ------------------------------------------------------------------
    # request/response bridging for the benchmark driver
    # ------------------------------------------------------------------
    def request(self, target_type: str, target_key: str, payload: object,
                request_id: str) -> "Event":
        """Send an ingress message; the event fires on matching egress."""
        waiter = Event(self.env)
        self._request_waiters[request_id] = waiter
        self.send_ingress(target_type, target_key, payload,
                          request_id=request_id)
        return waiter

    def emit_egress(self, kind: str, payload: object,
                    effect_id: str) -> None:
        if effect_id in self._egress_ids:
            return  # duplicate from replay: exactly-once egress
        self._egress_ids.add(effect_id)
        self.egress_log.append((self.env.now, kind, payload))
        request_id = effect_id.split(":", 1)[0]
        waiter = self._request_waiters.pop(request_id, None)
        if waiter is not None and waiter._value is PENDING:
            waiter.succeed(payload)

    # ------------------------------------------------------------------
    # checkpointing and recovery
    # ------------------------------------------------------------------
    _recovering = False

    def _checkpoint_loop(self):
        while True:
            yield self.env.timeout(self.config.checkpoint_interval)
            yield from self.take_checkpoint()

    def _pause(self):
        self.paused = True
        self.resume_event = self.env.event()
        # Aligned barrier: wait for in-flight messages to land in queues.
        while self._in_flight > 0:
            yield self.env.timeout(self.costs.delivery_latency)

    def _resume(self) -> None:
        self.paused = False
        self.resume_event.succeed()
        # A restore or rescale refills queues without _arrive(): wake
        # the idle workers that now have work.
        for worker in self.workers:
            if worker.queue and worker.idle:
                worker.idle = False
                self.env.call_after(0.0, worker._step)

    def seal_initial_state(self) -> None:
        """Record the current state as checkpoint zero.

        Called after data ingestion: installed state is durable, so a
        failure before the first periodic checkpoint must restore the
        ingested dataset rather than an empty cluster.
        """
        self._seal(full=True)

    def _seal(self, full: bool) -> None:
        """Make the current state and queues the last checkpoint, drop
        the ingress log it covers and spill down to budget (``full``:
        see :meth:`_snapshot_worker_states`).

        Recovery never replays past the checkpoint offset, so the whole
        log is dead weight once sealed; dropping it bounds the log by
        the checkpoint interval instead of the run length.
        """
        offset = self.ingress_base + len(self.ingress_log)
        self._last_checkpoint = _Checkpoint(
            time=self.env.now, ingress_offset=offset,
            worker_states=self._snapshot_worker_states(full),
            worker_queues=[list(worker.queue)
                           for worker in self.workers])
        self.ingress_compacted += len(self.ingress_log)
        self.ingress_log.clear()
        self.ingress_base = offset
        self._enforce_resident_budget()

    def install(self, address: tuple[str, str], state: dict) -> None:
        """Load a record out of band (data ingestion), durably.

        An installed record never passed through the ingress log, so
        no replay can rebuild it: besides the live worker state it is
        written into the last checkpoint, whenever it arrives.  A
        restore then brings it back as installed and the replayed
        messages re-apply whatever touched it since.
        """
        worker = self.worker_for(address)
        # state_for (rather than a raw dict insert) marks the address
        # dirty for the incremental checkpointer.
        worker.state_for(address).update(state)
        checkpoint = self._last_checkpoint
        if checkpoint is not None:
            snapshot = checkpoint.worker_states[self.workers.index(worker)]
            snapshot[address] = dict(state)

    def _enforce_resident_budget(self) -> None:
        """Spill down to budget right after a checkpoint.

        Checkpointing clears the dirty set, so this is the one moment
        every over-budget address is clean and spillable — the access
        path alone can only spill what happens to be clean.
        """
        limit = self.config.activation_limit
        if limit is None:
            return
        for worker in self.workers:
            if len(worker.state) > limit:
                worker._spill(limit, keep=None)

    def _snapshot_worker_states(self, full: bool) -> list[dict]:
        """Frozen per-worker state maps for a new checkpoint.

        Each address is kept as a shallow copy of its state's top
        level: state is a value below that level (see
        :class:`~repro.dataflow.function.Context`), so the copy costs
        O(top-level keys) however large the state has grown.
        Incremental: only addresses touched since the previous
        checkpoint are copied again; unchanged addresses share their
        copy with the previous snapshot.  ``full`` forces a complete
        snapshot (used when state was installed outside the message
        path, e.g. data ingestion).
        """
        previous = self._last_checkpoint
        states = []
        for index, worker in enumerate(self.workers):
            if full or previous is None:
                # Cold (spilled) addresses are part of the state too —
                # they are clean by construction but a *full* snapshot
                # rebuilds from scratch rather than trusting history.
                snapshot = {address: dict(state)
                            for address, state in worker.state.items()}
                snapshot.update({address: dict(state)
                                 for address, state in worker.cold.items()})
            else:
                snapshot = dict(previous.worker_states[index])
                for address in worker.dirty:
                    state = worker.state.get(address)
                    if state is not None:
                        snapshot[address] = dict(state)
            worker.dirty.clear()
            states.append(snapshot)
        return states

    def _stop_the_world(self, body: typing.Generator):
        """Process helper: run ``body`` with the world stopped, once
        every stop-the-world operation requested before it is done."""
        turn = self.env.event()
        if self._stopped:
            self._stop_waiters.append(turn)
        else:
            self._stopped = True
            turn.succeed()
        yield turn
        try:
            yield from body
        finally:
            if self._stop_waiters:
                self._stop_waiters.popleft().succeed()
            else:
                self._stopped = False

    def take_checkpoint(self) -> typing.Generator:
        """Process helper: stop-the-world aligned snapshot."""
        return self._stop_the_world(self._take_checkpoint_locked())

    def _take_checkpoint_locked(self):
        yield from self._pause()
        yield self.env.timeout(self.costs.checkpoint_sync)
        self._seal(full=False)
        self.checkpoints_taken += 1
        self._resume()

    def inject_failure(self) -> typing.Generator:
        """Process helper: crash, restore the last checkpoint, replay.

        All function state and queues roll back; ingress messages after
        the checkpoint offset are re-delivered.  Deterministic functions
        plus deduplicated egress give exactly-once end-to-end effects.
        """
        return self._stop_the_world(self._inject_failure_locked())

    def _inject_failure_locked(self):
        self.recoveries += 1
        self._recovering = True
        yield from self._pause()
        yield self.env.timeout(self.costs.recovery_pause)
        checkpoint = self._last_checkpoint
        if checkpoint is None:
            # No checkpoint yet: restart from scratch, replay everything.
            for worker in self.workers:
                worker.state = {}
                worker.cold.clear()
                worker.dirty.clear()
                worker.queue.clear()
            replay_from = 0
        else:
            for worker, state, queue in zip(self.workers,
                                            checkpoint.worker_states,
                                            checkpoint.worker_queues):
                # Copy the top level: the snapshot stays frozen (it may
                # be restored again) while the worker writes its copy's
                # top-level keys in place.  The checkpoint map is
                # complete (spilled addresses included), so the cold
                # tier resets with it.
                worker.state = {address: dict(tree)
                                for address, tree in state.items()}
                worker.cold.clear()
                worker.dirty.clear()
                worker.queue.clear()
                worker.queue.extend(queue)
            replay_from = checkpoint.ingress_offset
        self._recovering = False
        self._resume()
        for message in self.ingress_log[max(
                0, replay_from - self.ingress_base):]:
            self._deliver_ingress(FunctionMessage(
                self.env, message.target_type, message.target_key,
                message.payload, request_id=message.request_id,
                is_ingress=True, ingress_offset=message.ingress_offset))

    # ------------------------------------------------------------------
    # rescaling (the control plane's add_silo / drain_silo verbs)
    # ------------------------------------------------------------------
    def add_silo(self, name: str | None = None) -> "Process":
        """Scale out by one partition worker (stop-the-world rescale).

        Named for the control-plane verb vocabulary shared with the
        actor cluster; a dataflow engine changes parallelism by
        savepoint-and-restore, so the rescale runs as a process:
        pause, pay ``rescale_pause``, repartition every address and
        queued message under the new ``crc32 % N`` routing, seal a
        fresh full checkpoint matching the new topology, resume.
        Returns the rescale process.
        """
        return self.env.process(self._rescale(+1),
                                name=f"rescale-out-{self._worker_ids}")

    def drain_candidate(self) -> None:
        """Partitions are anonymous hash ranges: an untargeted drain
        stays untargeted (the newest worker always retires)."""
        return None

    def drain_silo(self, target: str | None = None) -> "Process":
        """Scale in by one partition worker (stop-the-world rescale).

        ``target`` is accepted for verb-signature compatibility and
        ignored: partitions are anonymous hash ranges, so the newest
        worker always retires.  Refuses (raises) when a rescale is
        already shrinking past one worker.
        """
        if len(self.workers) - self.draining_workers <= 1:
            raise ValueError("cannot drain the last partition worker")
        self.draining_workers += 1
        return self.env.process(self._rescale(-1),
                                name=f"rescale-in-{self._worker_ids}")

    def _rescale(self, delta: int):
        try:
            yield from self._stop_the_world(self._rescale_locked(delta))
        finally:
            if delta < 0:
                self.draining_workers -= 1

    def _rescale_locked(self, delta: int):
        yield from self._pause()
        yield self.env.timeout(self.costs.rescale_pause)
        old_workers = list(self.workers)
        if delta > 0:
            self.workers.append(Worker(self.env, self, self._worker_ids))
            self._worker_ids += 1
        else:
            self.workers.pop()
        self._routes.clear()
        # Repartition: every address (hot and cold tiers alike) and
        # every queued message moves to its new ``crc32 % N`` owner.
        moved_hot: list[tuple[tuple[str, str], dict]] = []
        moved_cold: list[tuple[tuple[str, str], dict]] = []
        moved_queue: list[FunctionMessage] = []
        for worker in old_workers:
            moved_hot.extend(worker.state.items())
            moved_cold.extend(worker.cold.items())
            moved_queue.extend(worker.queue)
            worker.state = {}
            worker.cold = {}
            worker.dirty = set()
            worker.queue.clear()
        for address, state in moved_hot:
            self.worker_for(address).state[address] = state
        for address, state in moved_cold:
            self.worker_for(address).cold[address] = state
        for message in moved_queue:
            self.worker_for(message.address).queue.append(message)
        # The old checkpoint's per-worker layout no longer matches the
        # topology; seal a full snapshot so a later failure restores
        # into the new shape (savepoint semantics).
        self._seal(full=True)
        self.rescales += 1
        self._resume()

    # ------------------------------------------------------------------
    @property
    def total_queued(self) -> int:
        return sum(len(worker.queue) for worker in self.workers)

    def state_of(self, type_name: str, key: str) -> dict | None:
        """Zero-latency state inspection for audits and tests."""
        worker = self.worker_for((type_name, key))
        address = (type_name, key)
        state = worker.state.get(address)
        if state is None:
            state = worker.cold.get(address)
        return state

    def control_stats(self) -> dict:
        """The uniform control-plane counters (``platform_stats()``
        fields, see :mod:`repro.control.signals`): partition workers
        play the silo role on this stack."""
        return {
            "silos_live": len(self.workers),
            "silos_draining": self.draining_workers,
            "silos_total": len(self.workers),
            "resident": sum(len(w.state) for w in self.workers),
            "paged": sum(len(w.cold) for w in self.workers),
            "messages": self.messages_processed,
        }

    def working_set_stats(self) -> dict:
        """Hot/cold address counters across all workers."""
        return {
            "activations": sum(w.addresses_created for w in self.workers),
            "evictions": sum(w.cold_evictions for w in self.workers),
            "reloads": sum(w.cold_reloads for w in self.workers),
            "peak_resident": sum(w.peak_resident for w in self.workers),
            "resident": sum(len(w.state) for w in self.workers),
            "paged": sum(len(w.cold) for w in self.workers),
            "limit": self.config.activation_limit,
        }

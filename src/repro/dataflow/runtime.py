"""The Statefun runtime: workers, checkpoints, failure and replay."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing
import zlib

from repro.dataflow.function import Context, StatefulFunction
from repro.dataflow.messages import FunctionMessage
from repro.runtime.environment import SimulationError
from repro.runtime.events import Event
from repro.runtime.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment
    from repro.runtime.process import Process


@dataclasses.dataclass
class StatefunConfig:
    """Deployment and cost-model parameters for the dataflow runtime."""

    partitions: int = 4
    cores_per_partition: int = 4
    #: One-way delivery latency between functions (and from ingress).
    delivery_latency: float = 0.0002
    #: Fixed CPU overhead per message for envelopes/serialisation —
    #: the dataflow tax relative to raw actor calls.
    envelope_cpu: float = 0.00006
    #: Extra cost of a message that crosses partitions (network shuffle
    #: plus serialisation).  With P partitions, (P-1)/P of uniformly
    #: routed messages pay it — the mechanical source of the dataflow's
    #: sub-linear scaling (paper: "lower scalability compared to
    #: Orleans Eventual").
    cross_partition_latency: float = 0.0004
    cross_partition_cpu: float = 0.00008
    #: Interval between aligned checkpoints (0 disables checkpointing).
    checkpoint_interval: float = 0.5
    #: Stop-the-world duration of one aligned checkpoint.
    checkpoint_sync: float = 0.02
    #: Pause while restoring from a checkpoint after a failure.
    recovery_pause: float = 0.25
    #: Stop-the-world duration of one rescale (the savepoint-and-
    #: restore a dataflow engine pays to change parallelism — an order
    #: of magnitude above a checkpoint sync, well below a recovery).
    rescale_pause: float = 0.08
    #: Per-worker budget of hot (in-memory) addresses; None = unbounded.
    #: Above the budget, least-recently-used clean addresses spill to
    #: the worker's cold tier (the RocksDB state backend analogue) and
    #: reload transparently on next access.
    max_resident_addresses: int | None = None

    def __post_init__(self) -> None:
        # Checked once, here: a negative latency or pause would schedule
        # into the past, and NaN fails every comparison below.
        limit = self.max_resident_addresses
        rules = [(name, ">= 1", getattr(self, name) >= 1)
                 for name in ("partitions", "cores_per_partition")]
        rules += [(name, ">= 0", getattr(self, name) >= 0) for name in (
            "delivery_latency", "envelope_cpu", "cross_partition_latency",
            "cross_partition_cpu", "checkpoint_interval", "checkpoint_sync",
            "recovery_pause", "rescale_pause")]
        rules += [("max_resident_addresses", ">= 1 or None",
                   limit is None or limit >= 1)]
        for name, rule, holds in rules:
            if not holds:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)}")


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
    """One partition: a queue, per-address state, and CPU cores.

    No process serves the queue: a worker is a chain of kernel
    callbacks that takes one message at a time — look at the queue,
    hold a core for the message's CPU cost, run the function, look
    again.  Its timeline entries are those of the process it replaced:
    a zero-delay entry at construction (the bootstrap), a zero-delay
    wake-up when an idle worker gets a message, the CPU hold, and a
    callback on the runtime's resume event while paused.
    """

    def __init__(self, env: "Environment", runtime: "StatefunRuntime",
                 index: int, cores: int) -> None:
        self.env = env
        self.runtime = runtime
        self.index = index
        self.cpu = Resource(env, capacity=cores)
        self.queue: collections.deque[FunctionMessage] = collections.deque()
        self.state: dict[tuple[str, str], dict] = {}
        #: Addresses whose state may have changed since the last
        #: checkpoint; only these are re-snapshotted (dirty tracking is
        #: conservative: any state access marks the address).
        self.dirty: set[tuple[str, str]] = set()
        self.processed = 0
        #: Cold tier (RocksDB-backend analogue): state dicts spilled
        #: under ``max_resident_addresses``.
        self.cold: dict[tuple[str, str], dict] = {}
        self.cold_evictions = 0
        self.cold_reloads = 0
        self.peak_resident = 0
        self.addresses_created = 0
        #: True while parked on an empty queue: the next message wakes
        #: the worker with one zero-delay timeline entry.
        self.idle = False
        #: The message in its CPU hold and its function.
        self._message: FunctionMessage | None = None
        self._function: StatefulFunction | None = None
        env.call_after(0.0, self._next)

    def enqueue(self, message: FunctionMessage) -> None:
        self.queue.append(message)
        if self.idle:
            self.idle = False
            self.env.call_after(0.0, self._next)

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
        limit = self.runtime.config.max_resident_addresses
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

    def _next(self, _event: Event | None = None) -> None:
        """Take the next message: wait out a pause, park on an empty
        queue, or start the message's CPU hold."""
        runtime = self.runtime
        if runtime.paused:
            runtime.resume_event.callbacks.append(self._next)
            return
        if not self.queue:
            self.idle = True
            return
        message = self.queue.popleft()
        function = runtime._functions.get(message.target_type)
        if function is None:
            raise SimulationError(
                f"no function registered for {message.target_type!r}")
        cpu_cost = function.cpu_cost + runtime.config.envelope_cpu
        if message.cross_partition:
            cpu_cost += runtime.config.cross_partition_cpu
        self._message = message
        self._function = function
        self.cpu.hold(cpu_cost, self._run)

    def _run(self, _event: Event) -> None:
        """The CPU hold is over: run the function to completion.  State
        is fetched only now, so a restore during the hold is seen."""
        message = self._message
        address = message.address
        context = Context(self.runtime, self, message,
                          self.state_for(address))
        try:
            result = self._function.invoke(context, message.payload)
        except Exception as exc:
            raise SimulationError(
                f"function {address} failed on {message!r}") from exc
        if result is not None:
            raise SimulationError(
                f"function {address} returned {result!r} on {message!r}; "
                f"a stateful function runs to completion and returns None")
        self.processed += 1
        self.runtime.messages_processed += 1
        self._next()


class StatefunRuntime:
    """Registry, router and checkpoint coordinator for stateful functions."""

    def __init__(self, env: "Environment",
                 config: StatefunConfig | None = None) -> None:
        self.env = env
        self.config = config or StatefunConfig()
        #: Routing memo, address -> owning worker; cleared by a rescale.
        self._routes: dict[tuple[str, str], Worker] = {}
        self.workers = [Worker(env, self, index,
                               self.config.cores_per_partition)
                        for index in range(self.config.partitions)]
        self._worker_ids = self.config.partitions
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
        #: Serialises stop-the-world operations (checkpoints, recovery):
        #: overlapping pauses would corrupt the shared resume event.
        self._stw_lock = Resource(env, capacity=1)
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
            target_type=target_type, target_key=target_key,
            payload=payload, request_id=request_id, is_ingress=True,
            ingress_offset=self.ingress_base + len(self.ingress_log))
        self.ingress_log.append(message)
        self._deliver(message)
        return message

    def send_internal(self, target_type: str, target_key: str,
                      payload: object,
                      request_id: str | None = None,
                      source_worker: "Worker | None" = None) -> None:
        message = FunctionMessage(target_type, target_key, payload,
                                  request_id)
        if source_worker is not None:
            address = message.address
            if source_worker is not (self._routes.get(address)
                                     or self.worker_for(address)):
                message.cross_partition = True
        self._deliver(message)

    def _deliver(self, message: FunctionMessage) -> None:
        """Put ``message`` on the wire: one pooled timeline entry that
        enqueues it at the owning worker on arrival.  The owner is
        looked up again at arrival — a rescale may have moved it."""
        self._in_flight += 1
        latency = self.config.delivery_latency
        if message.cross_partition:
            latency += self.config.cross_partition_latency

        def arrive(_event) -> None:
            self._in_flight -= 1
            if self.paused and message.is_ingress is False:
                # Internal message arriving mid-recovery belongs to the
                # failed epoch; it will be regenerated by replay.
                if self._recovering:
                    return
            address = message.address
            (self._routes.get(address)
             or self.worker_for(address)).enqueue(message)

        self.env.call_after(latency, arrive)

    # ------------------------------------------------------------------
    # request/response bridging for the benchmark driver
    # ------------------------------------------------------------------
    def request(self, target_type: str, target_key: str, payload: object,
                request_id: str) -> "Event":
        """Send an ingress message; the event fires on matching egress."""
        waiter = self.env.event()
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
        if waiter is not None and not waiter.triggered:
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
            yield self.env.timeout(self.config.delivery_latency)

    def _resume(self) -> None:
        self.paused = False
        self.resume_event.succeed()
        # A restore or rescale refills queues without enqueue(): wake
        # the idle workers that now have work.
        for worker in self.workers:
            if worker.queue and worker.idle:
                worker.idle = False
                self.env.call_after(0.0, worker._next)

    def seal_initial_state(self) -> None:
        """Record the current state as checkpoint zero.

        Called after data ingestion: installed state is durable, so a
        failure before the first periodic checkpoint must restore the
        ingested dataset rather than an empty cluster.
        """
        self._last_checkpoint = _Checkpoint(
            time=self.env.now,
            ingress_offset=self.ingress_base + len(self.ingress_log),
            worker_states=self._snapshot_worker_states(full=True),
            worker_queues=[list(worker.queue)
                           for worker in self.workers])
        self._compact_ingress()
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
        limit = self.config.max_resident_addresses
        if limit is None:
            return
        for worker in self.workers:
            if len(worker.state) > limit:
                worker._spill(limit, keep=None)

    def _snapshot_worker_states(self, full: bool = False) -> list[dict]:
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

    def _compact_ingress(self) -> None:
        """Drop ingress messages at offsets below the last checkpoint.

        Recovery never replays past the checkpoint offset, so the
        prefix is dead weight; compacting it bounds the log by the
        checkpoint interval instead of the run length.
        """
        checkpoint = self._last_checkpoint
        if checkpoint is None:
            return
        drop = checkpoint.ingress_offset - self.ingress_base
        if drop > 0:
            del self.ingress_log[:drop]
            self.ingress_base = checkpoint.ingress_offset
            self.ingress_compacted += drop

    def take_checkpoint(self):
        """Process helper: stop-the-world aligned snapshot."""
        request = self._stw_lock.request()
        yield request
        try:
            yield from self._take_checkpoint_locked()
        finally:
            self._stw_lock.release(request)

    def _take_checkpoint_locked(self):
        yield from self._pause()
        yield self.env.timeout(self.config.checkpoint_sync)
        self._last_checkpoint = _Checkpoint(
            time=self.env.now,
            ingress_offset=self.ingress_base + len(self.ingress_log),
            worker_states=self._snapshot_worker_states(),
            worker_queues=[list(worker.queue)
                           for worker in self.workers])
        self.checkpoints_taken += 1
        self._compact_ingress()
        self._enforce_resident_budget()
        self._resume()

    def inject_failure(self):
        """Process helper: crash, restore the last checkpoint, replay.

        All function state and queues roll back; ingress messages after
        the checkpoint offset are re-delivered.  Deterministic functions
        plus deduplicated egress give exactly-once end-to-end effects.
        """
        request = self._stw_lock.request()
        yield request
        try:
            yield from self._inject_failure_locked()
        finally:
            self._stw_lock.release(request)

    def _inject_failure_locked(self):
        self.recoveries += 1
        self._recovering = True
        yield from self._pause()
        yield self.env.timeout(self.config.recovery_pause)
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
            replayed = FunctionMessage(
                target_type=message.target_type,
                target_key=message.target_key,
                payload=message.payload,
                request_id=message.request_id,
                is_ingress=True,
                ingress_offset=message.ingress_offset)
            self._deliver(replayed)

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
        request = self._stw_lock.request()
        yield request
        try:
            yield from self._rescale_locked(delta)
        finally:
            if delta < 0:
                self.draining_workers -= 1
            self._stw_lock.release(request)

    def _rescale_locked(self, delta: int):
        yield from self._pause()
        yield self.env.timeout(self.config.rescale_pause)
        old_workers = list(self.workers)
        if delta > 0:
            self.workers.append(Worker(self.env, self, self._worker_ids,
                                       self.config.cores_per_partition))
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
        self._last_checkpoint = _Checkpoint(
            time=self.env.now,
            ingress_offset=self.ingress_base + len(self.ingress_log),
            worker_states=self._snapshot_worker_states(full=True),
            worker_queues=[list(worker.queue)
                           for worker in self.workers])
        self._compact_ingress()
        self._enforce_resident_budget()
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
            "limit": self.config.max_resident_addresses,
        }

"""The simulation environment: virtual clock plus event queue.

:class:`Environment` owns simulated time.  Events are scheduled onto a
binary heap keyed by ``(time, sequence)``; the sequence number makes the
ordering total and therefore the whole simulation deterministic for a
given seed.

Two hot-path structures sit in front of the heap without changing that
total order (see ``docs/performance.md``):

* a *same-tick bucket* — zero-delay schedules go to a FIFO deque instead
  of the heap, because they can only ever fire at the current time; the
  dispatch loop interleaves bucket and heap strictly by
  ``(time, sequence)``;
* an *event free-list* — short-lived kernel events (message transit,
  process bootstrap) are :class:`~repro.runtime.events.PooledEvent`
  instances recycled after their callbacks run.
"""

from __future__ import annotations

import collections
import heapq
import typing

from repro.runtime.events import (
    PENDING,
    AllOf,
    Event,
    PooledEvent,
    Timeout,
)
from repro.runtime.process import Process
from repro.runtime.rng import SeedSequenceFactory

__all__ = ["Environment", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Upper bound on the event free-list; beyond this, released events are
#: simply dropped for the garbage collector.
_POOL_MAX = 1024


class SimulationError(Exception):
    """An unhandled failure surfaced by the simulation kernel."""


class Environment:
    """Discrete-event simulation environment.

    Parameters
    ----------
    seed:
        Master seed for all random streams derived via :meth:`rng`.
        Two environments constructed with the same seed and running the
        same model produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time (seconds).  A plain attribute that the
        #: kernel alone writes; everything else only reads it.
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        #: Same-tick fast path: ``(seq, event)`` pairs for zero-delay
        #: schedules.  Entries can only fire at the current time, so
        #: FIFO order *is* sequence order and no heap sifting is needed.
        self._bucket: collections.deque[tuple[int, Event]] = (
            collections.deque())
        self._seq = 0
        self._seeds = SeedSequenceFactory(seed)
        self.seed = seed
        #: Events processed by the ``run()`` calls that have returned —
        #: the kernel's unit of work, used by the hot-path benchmark to
        #: report events per wall-second.  ``run()`` adds its count up
        #: once, as it returns, so a callback inside a run reads the
        #: total from before that run.
        self.events_processed = 0
        self._pool: list[PooledEvent] = []
        #: Free-list telemetry for the kernel micro-benchmark.
        self.pool_acquires = 0
        self.pool_hits = 0

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._bucket.append((seq, event))
        else:
            _heappush(self._queue, (self.now + delay, seq, event))

    def acquire_event(self) -> PooledEvent:
        """Check a pending event out of the kernel free-list.

        Pool contract: the caller must schedule the event exactly once
        and must not retain a reference past its dispatch — the kernel
        resets and reuses the object as soon as its callbacks have run.
        For anything waited on across steps use :meth:`event` instead.
        """
        self.pool_acquires += 1
        pool = self._pool
        if pool:
            self.pool_hits += 1
            return pool.pop()
        return PooledEvent(self)

    def call_after(self, delay: float,
                   callback: typing.Callable[[Event], None]) -> None:
        """Run ``callback(event)`` after ``delay`` seconds of sim time.

        Replaces the ``env.timeout(d).callbacks.append(cb)`` idiom with
        a pooled event, so steady-state scheduling allocates nothing:
        broker delivery, a 2PC transaction's rounds, the working-set
        sweep and its pager writes, and a process's first step run on
        it.  Four sites inline this body — keep all five identical:
        ``Cluster._route`` (delivery) and ``Message._charge`` (CPU
        hold) in ``repro.actors``, ``StatefunRuntime._arrive``
        (wake-up) and ``Worker._step`` (CPU charge) in
        ``repro.dataflow``.  (``Message._reply`` and ``Context.send``
        inline :meth:`Event.trigger_after`: the message is its own
        entry.)  ``tests/test_event_budgets.py`` pins each path's
        same-tick order: ``test_same_tick_order_on_the_*_is_pinned``.
        """
        self.pool_acquires += 1
        pool = self._pool
        if pool:
            self.pool_hits += 1
            event = pool.pop()
        else:
            event = PooledEvent(self)
        event._value = None
        event.callbacks.append(callback)  # type: ignore[union-attr]
        self._seq = seq = self._seq + 1
        if delay > 0.0:
            _heappush(self._queue, (self.now + delay, seq, event))
        elif delay == 0.0:
            self._bucket.append((seq, event))
        else:
            raise ValueError(f"negative delay {delay}")

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time) or an :class:`Event` (run until
        it fires, returning its value).
        """
        stop_event: Event | None = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            # Running until an event counts as "handling" its failure:
            # the exception is re-raised below instead of at dispatch.
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(
                    lambda event: event.defuse() if not event.ok else None)
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self.now:
                raise ValueError(
                    f"until={stop_time} is not a time at or after "
                    f"now={self.now}")

        # One dispatch body, inlined: this loop is the hottest code in
        # the repository and a shared helper costs a call frame per
        # event.  The bucket holds only entries due now, so its head
        # runs unless the heap head is also due now and was scheduled
        # first.
        queue = self._queue
        bucket = self._bucket
        pool = self._pool
        pop_bucket = bucket.popleft
        processed = 0
        try:
            while stop_event is None or stop_event.callbacks is not None:
                if bucket:
                    if (queue and queue[0][0] == self.now
                            and queue[0][1] < bucket[0][0]):
                        event = _heappop(queue)[2]
                    else:
                        event = pop_bucket()[1]
                elif not queue:
                    break
                elif queue[0][0] > stop_time:
                    self.now = stop_time
                    break
                else:
                    self.now, _, event = _heappop(queue)
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks or ():
                    callback(event)
                if not event._ok and not event._defused:
                    exc = typing.cast(BaseException, event._value)
                    raise SimulationError(
                        f"unhandled failure in {event!r}") from exc
                if event.__class__ is PooledEvent and len(pool) < _POOL_MAX:
                    event._ok = True
                    event._defused = False
                    event._value = PENDING
                    callbacks.clear()
                    event.callbacks = callbacks
                    pool.append(event)
        finally:
            self.events_processed += processed

        if stop_event is not None:
            if not stop_event.triggered:
                return None
            if not stop_event.ok:
                stop_event.defuse()
                raise typing.cast(BaseException, stop_event._value)
            return stop_event.value
        if (until is not None and self.now < stop_time
                and not self._queue and not self._bucket):
            self.now = stop_time
        return None

    # ------------------------------------------------------------------
    # factory helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event owned by this environment."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator[Event, object, object],
                name: str | None = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def rng(self, name: str):
        """Return a named, independently-seeded random stream.

        Streams are derived deterministically from the environment seed
        and the stream name, so adding a new consumer of randomness does
        not perturb existing streams.
        """
        return self._seeds.stream(name)

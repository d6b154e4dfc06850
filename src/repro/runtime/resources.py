"""Capacity-limited resources for modelling CPU cores and similar.

A :class:`Resource` has a fixed number of slots.  A caller holds a slot
for the duration of its simulated work (:meth:`Resource.hold`).  When all
slots are busy, requests queue FIFO — this queueing is what produces
realistic saturation behaviour (latency rising as offered load
approaches capacity) in the benchmark results.
"""

from __future__ import annotations

import collections
import typing

from repro.runtime.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.environment import Environment


class ResourceRequest(Event):
    """Event that fires when the requested slot is granted."""

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.granted = False


class Resource:
    """A FIFO resource with ``capacity`` identical slots."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: collections.deque[ResourceRequest] = collections.deque()
        # Aggregate accounting, used to compute utilisation in reports.
        self._busy_time = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def _account(self) -> None:
        # Inlined at the per-message sites below; keep them identical.
        now = self.env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilisation(self, elapsed: float | None = None) -> float:
        """Average fraction of capacity busy since the start of the run."""
        self._account()
        horizon = elapsed if elapsed is not None else self.env.now
        if horizon <= 0:
            return 0.0
        return self._busy_time / (horizon * self.capacity)

    def _grant(self, request: ResourceRequest) -> None:
        """Hand ``request`` a slot (bookkeeping shared by all grants)."""
        self._account()
        self._in_use += 1
        request.granted = True

    def request(self) -> ResourceRequest:
        """Request a slot; the returned event fires when granted."""
        request = ResourceRequest(self)
        if self._in_use < self.capacity:
            self._grant(request)
            request.succeed()
        else:
            self._waiting.append(request)
        return request

    def _release_slot(self) -> None:
        """Free one slot and grant queued waiters (shared bookkeeping)."""
        now = self.env.now  # _account(), inline: once per message
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            waiter = self._waiting.popleft()
            self._grant(waiter)
            waiter.succeed()

    def release(self, request: ResourceRequest) -> None:
        """Release a previously granted slot."""
        if not request.granted:
            raise RuntimeError("releasing a request that was never granted")
        self._release_slot()

    def hold(self, duration: float,
             then: typing.Callable[[Event], None]) -> None:
        """Acquire a slot, hold it ``duration``, release it, then run
        ``then(event)``.

        The grant is synchronous when a slot is free — no grant event
        (and no :class:`ResourceRequest` at all) is created and the hold
        starts immediately; otherwise the caller queues FIFO behind
        earlier requests.  The slot is always released, whatever became
        of the caller meanwhile.
        """
        def held(event: Event) -> None:
            if self._waiting:
                self._release_slot()
            else:  # the same with nobody to grant, inline
                now = self.env.now
                self._busy_time += self._in_use * (now - self._last_change)
                self._last_change = now
                self._in_use -= 1
            then(event)

        if self._in_use < self.capacity:
            now = self.env.now  # _account(), inline
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self.env.call_after(duration, held)
        else:
            self.request().callbacks.append(  # type: ignore[union-attr]
                lambda _grant: self.env.call_after(duration, held))

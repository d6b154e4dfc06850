"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.
Events move through three states: *pending* (created, not yet triggered),
*triggered* (scheduled to fire at some simulation time) and *processed*
(callbacks have run).  Processes wait on events by ``yield``-ing them.
"""

from __future__ import annotations

import typing
from heapq import heappush as _heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.environment import Environment

PENDING = object()
"""Sentinel for an event value that has not been set yet."""


class Event:
    """A one-shot occurrence in simulated time.

    Processes wait on an event by yielding it.  The event owner calls
    :meth:`succeed` or :meth:`fail` to trigger it; the kernel then resumes
    every waiting process at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event fired successfully (valid after trigger)."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's value; raises if the event has not been triggered."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): triggering is always zero-delay,
        # i.e. a straight same-tick bucket append.
        env = self.env
        env._seq = seq = env._seq + 1
        env._bucket.append((seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` raised at their yield
        point.  If no process ever waits on a failed event the kernel
        surfaces the exception at the end of the run (unless defused).
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        # Inlined env.schedule(self) — see succeed().
        env = self.env
        env._seq = seq = env._seq + 1
        env._bucket.append((seq, self))
        return self

    def trigger_after(self, delay: float, value: object = None,
                      ok: bool = True) -> None:
        """Delayed :meth:`succeed` (or, with ``ok=False`` and an
        exception as ``value``, :meth:`fail`): the outcome is fixed
        now — ``triggered`` turns True — and waiters resume ``delay``
        seconds on.  One timeline entry carries both the wait and the
        wake-up; a ``call_after`` that then calls ``succeed`` costs two.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        # Inlined env.schedule(self, delay) — see succeed() — before the
        # outcome is stored: a rejected delay leaves the event pending.
        env = self.env
        seq = env._seq + 1
        if delay > 0.0:
            _heappush(env._queue, (env.now + delay, seq, self))
        elif delay == 0.0:
            env._bucket.append((seq, self))
        else:
            raise ValueError(f"negative delay {delay}")
        env._seq = seq
        self._ok = ok
        self._value = value

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class PooledEvent(Event):
    """A kernel-recycled event (see ``Environment.acquire_event``).

    The dispatch loop identifies pooled events by exact class and
    returns them to the environment's free-list right after their
    callbacks run, resetting ``callbacks``/``_value``/``_ok``/
    ``_defused`` to the pending state.  Consequently a pooled event must
    never be retained past its dispatch — in particular it must not be
    yielded from a process or stored in an :class:`AllOf`, both of
    which read ``value``/``processed`` later.
    """

    __slots__ = ()


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float,
                 value: object = None) -> None:
        if not delay >= 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ and env.schedule — timeouts are the
        # kernel's most frequently created event; one call frame per
        # yield matters.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        env._seq = seq = env._seq + 1
        if delay == 0.0:
            env._bucket.append((seq, self))
        else:
            _heappush(env._queue, (env.now + delay, seq, self))


class AllOf(Event):
    """Waits for every one of ``events``.

    Fires with a dict of event -> value, in the order given, once all
    of them have fired; fails as soon as any one of them fails.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment",
                 events: typing.Iterable[Event]) -> None:
        # Event's fields, set here, and the members' states read as
        # attributes, not properties: a fan-out builds one per call.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._events = members = list(events)
        self._count = 0

        for event in members:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        if not members:
            self.succeed({})
            return

        check = self._check
        for event in members:
            if self._value is not PENDING:
                break  # already decided: do not subscribe to the rest
            callbacks = event.callbacks
            if callbacks is None:  # already processed
                check(event)
            else:
                callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(typing.cast(BaseException, event._value))
            self._detach()
        elif self._count >= len(self._events):
            self.succeed({member: member._value
                          for member in self._events})

    def _detach(self) -> None:
        """Unsubscribe from constituents that have not fired yet.

        Without this, a failed condition stays registered on every
        event still pending; a long-lived one then pins the condition —
        and through it the whole event list — for its own lifetime.
        """
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass

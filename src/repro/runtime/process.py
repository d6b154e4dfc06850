"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields
:class:`~repro.runtime.events.Event` objects; whenever a yielded event
fires, the kernel resumes the generator with the event's value (or raises
the event's exception into it).  The process itself is also an event: it
fires with the generator's return value when the generator finishes, so
processes can wait on each other.
"""

from __future__ import annotations

import typing

from repro.runtime.events import Event, PENDING

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.environment import Environment


class Process(Event):
    """A running simulation process driving a generator.

    The process is an :class:`Event` that fires when the generator
    terminates — successfully with its return value, or with the
    exception that escaped it.
    """

    __slots__ = ("_generator", "_send", "_throw", "name")

    def __init__(self, env: "Environment",
                 generator: typing.Generator[Event, object, object],
                 name: str | None = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        # Event's fields, set here: a fan-out starts a process per
        # member, and ``Event.__init__`` would add a frame to each.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        # Bound methods cached once: _resume runs for every event the
        # process waits on, so per-resume attribute chains add up.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process via an immediately-scheduled pooled event.
        env.call_after(0.0, self._resume)

    def _resume(self, event: Event) -> None:
        env = self.env
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                # The event failed: raise its exception inside the process.
                event._defused = True
                result = self._throw(
                    typing.cast(BaseException, event._value))
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            # Finished: fire as ``Event.succeed`` does, through the
            # same-tick bucket (``env.schedule(self)``, inline).
            env._seq = seq = env._seq + 1
            env._bucket.append((seq, self))
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            env._seq = seq = env._seq + 1
            env._bucket.append((seq, self))
            return

        if not isinstance(result, Event):
            error = RuntimeError(
                f"process {self.name!r} yielded {result!r}, "
                f"which is not an Event")
            self._kill(error)
            return
        callbacks = result.callbacks
        if callbacks is None:
            # Already processed: resume immediately (next scheduler step)
            # via a pooled proxy.
            immediate = env.acquire_event()
            immediate._ok = result._ok
            immediate._value = result._value
            if not result._ok:
                result.defuse()
                immediate._defused = True
            immediate.callbacks.append(self._resume)
            env.schedule(immediate)
        else:
            callbacks.append(self._resume)

    def _kill(self, exc: BaseException) -> None:
        try:
            self._generator.throw(exc)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
        except BaseException as inner:
            self._ok = False
            self._value = inner
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = "alive" if self._value is PENDING else "dead"
        return f"<Process {self.name!r} {state}>"

"""Stateful functions and their invocation context."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.messages import FunctionMessage
    from repro.dataflow.runtime import StatefunRuntime, Worker


class Context:
    """Handed to a function invocation: state access plus messaging.

    ``state`` is the per-(type, key) persistent dictionary; the worker
    stores what it holds when the invocation returns, visible to later
    invocations of the same address and rolled back to the last
    checkpoint on failure (then regenerated by replay).

    State is a value: a function replaces it by assignment,
    ``context.state = logic(context.state, ...)``, or sets and deletes
    its top-level keys in place, but it replaces every container below
    that level instead of mutating it (``repro.cow.assoc_in`` /
    ``dissoc_in``, or a fresh dict or list).  A checkpoint keeps a
    shallow copy of the top level and shares everything below it with
    the live state, so a nested in-place write would rewrite history.

    A worker owns one context and refills its ``message``, ``key``,
    ``request_id`` and ``state`` before each invocation.  That is safe
    because a function runs to completion (a generator is rejected):
    no invocation can still hold the context when the next one starts.
    A function must not keep it beyond its return.
    """

    __slots__ = ("runtime", "worker", "message", "state", "key",
                 "request_id")

    def __init__(self, runtime: "StatefunRuntime",
                 worker: "Worker") -> None:
        self.runtime = runtime
        self.worker = worker
        self.message: "FunctionMessage | None" = None
        self.state: dict[str, typing.Any] = {}
        self.key = ""
        self.request_id: str | None = None

    def send(self, target_type: str, target_key: str, payload: object,
             request_id: str | None = None) -> None:
        """Send a message to another function (at-least-once + dedup).

        Messages leaving this worker's partition pay the shuffle cost.
        """
        self.runtime.send_internal(
            target_type, target_key, payload,
            request_id=request_id if request_id is not None
            else self.request_id,
            source_worker=self.worker)

    def egress(self, kind: str, payload: object,
               effect_id: str | None = None) -> None:
        """Emit to the outside world; deduplicated across replays.

        ``effect_id`` must be deterministic across replays (defaults to
        the request id plus ``kind``) — that determinism is what turns
        at-least-once replay into exactly-once egress.
        """
        if effect_id is None:
            effect_id = f"{self.request_id}:{kind}"
        self.runtime.emit_egress(kind, payload, effect_id)


class StatefulFunction:
    """Base class for stateful functions.

    Subclasses implement :meth:`invoke` as a plain method that runs to
    completion and returns ``None``; its simulated work is the cost
    model's ``function_cpu``, which the worker charges before the call.
    A function that returns anything else (a generator, say) fails the
    run.  Invocation is single-writer per address: no other invocation
    touches the same state concurrently.
    """

    def invoke(self, context: Context, payload: object) -> None:
        """Handle one message."""
        raise NotImplementedError

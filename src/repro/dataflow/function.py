"""Stateful functions and their invocation context."""

from __future__ import annotations

import typing
from heapq import heappush as _heappush

from repro.dataflow.messages import FunctionMessage

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
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

        The message is its own timeline entry, fired at its owner
        (``StatefunRuntime._arrive``); one leaving this worker's
        partition pays the shuffle cost.
        """
        runtime = self.runtime
        env = runtime.env
        message = FunctionMessage(
            env, target_type, target_key, payload,
            request_id if request_id is not None else self.request_id)
        latency = runtime.costs.delivery_latency
        if self.worker is not (runtime._routes.get(message.address)
                               or runtime.worker_for(message.address)):
            message.cross_partition = True
            latency += runtime.costs.cross_partition_latency
        runtime._in_flight += 1
        message.callbacks.append(runtime._arrive)
        # message.trigger_after(latency), inline.
        env._seq = seq = env._seq + 1
        if latency > 0.0:
            _heappush(env._queue, (env.now + latency, seq, message))
        else:
            env._bucket.append((seq, message))
        message._value = None

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

"""Messages exchanged between stateful functions."""

from __future__ import annotations

import typing

from repro.runtime.events import PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class FunctionMessage(Event):
    """A message addressed to a stateful function instance, and its own
    delivery event: putting it on the wire triggers it after the
    delivery latency, and its arrival callback queues it at the owning
    worker.  A message is delivered at most once; a replay builds a
    fresh one.

    ``request_id`` threads the driver's request identity through the
    function chain so that the final egress can complete the right
    request exactly once, even across failure/replay.  ``address`` is
    the ``(target_type, target_key)`` pair, built once here: routing
    and state lookup read it on every hop.
    """

    __slots__ = ("target_type", "target_key", "payload", "request_id",
                 "is_ingress", "ingress_offset", "cross_partition",
                 "address")

    def __init__(self, env: "Environment", target_type: str,
                 target_key: str, payload: object,
                 request_id: str | None = None, is_ingress: bool = False,
                 ingress_offset: int = -1,
                 cross_partition: bool = False) -> None:
        # Event's fields, set here: a message is built per hop, and
        # ``Event.__init__`` would add a frame to each.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.target_type = target_type
        self.target_key = target_key
        self.payload = payload
        self.request_id = request_id
        self.is_ingress = is_ingress
        self.ingress_offset = ingress_offset
        #: Set by the runtime when the message crosses worker partitions
        #: (pays the shuffle latency/CPU costs).
        self.cross_partition = cross_partition
        self.address = (target_type, target_key)

    def __repr__(self) -> str:
        return (f"FunctionMessage({self.target_type}/{self.target_key}, "
                f"{self.payload!r}, request_id={self.request_id!r})")

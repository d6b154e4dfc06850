"""Messages exchanged between stateful functions."""

from __future__ import annotations


class FunctionMessage:
    """A message addressed to a stateful function instance.

    ``request_id`` threads the driver's request identity through the
    function chain so that the final egress can complete the right
    request exactly once, even across failure/replay.  ``address`` is
    the ``(target_type, target_key)`` pair, built once here: routing
    and state lookup read it on every hop.
    """

    __slots__ = ("target_type", "target_key", "payload", "request_id",
                 "is_ingress", "ingress_offset", "cross_partition",
                 "address")

    def __init__(self, target_type: str, target_key: str, payload: object,
                 request_id: str | None = None, is_ingress: bool = False,
                 ingress_offset: int = -1,
                 cross_partition: bool = False) -> None:
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

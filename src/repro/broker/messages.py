"""Event envelopes carried by the broker."""

from __future__ import annotations

import dataclasses
import itertools

_sequence = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class EventEnvelope:
    """A published event plus the metadata the broker needs to route it.

    Attributes
    ----------
    topic:
        The topic name the event was published to.
    key:
        Partition/ordering key (e.g. order id).  Under
        ``DeliveryMode.CAUSAL`` events with the same key are delivered in
        publish order and causality is tracked per key.
    payload:
        The application event object.
    publish_time:
        Simulated time of publication.
    sequence:
        Global, monotonically increasing publication number (used for
        audit logs and deterministic tie-breaking).
    causal_deps:
        Sequence numbers of events that must be delivered to a subscriber
        before this one under causal delivery.
    """

    topic: str
    key: str
    payload: object
    publish_time: float
    sequence: int = dataclasses.field(
        default_factory=lambda: next(_sequence))
    causal_deps: tuple[int, ...] = ()

"""Asynchronous event broker with configurable delivery guarantees.

Microservices in Online Marketplace exchange data via asynchronous
events.  The paper's criteria distinguish *unordered* delivery from
*causally ordered* delivery (e.g. payment events must precede shipment
events of the same order).  This broker implements both; causal delivery
also keeps same-key events in publish order.
"""

from repro.broker.messages import EventEnvelope
from repro.broker.topics import Broker, DeliveryMode, Subscription, Topic

__all__ = [
    "Broker",
    "DeliveryMode",
    "EventEnvelope",
    "Subscription",
    "Topic",
]

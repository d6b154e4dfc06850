"""Unit tests for the event broker delivery modes."""

import pytest

from repro.broker import Broker, DeliveryMode
from repro.runtime import Environment, SimulationError


def make_broker(mode, **kwargs):
    env = Environment(seed=42)
    broker = Broker(env, default_mode=mode, **kwargs)
    return env, broker


def test_publish_returns_envelope_with_metadata():
    env, broker = make_broker(DeliveryMode.UNORDERED)
    envelope = broker.publish("orders", key="o1", payload={"id": 1})
    assert envelope.topic == "orders"
    assert envelope.key == "o1"
    assert envelope.publish_time == 0.0
    assert envelope.sequence > 0


def test_subscriber_receives_published_event():
    env, broker = make_broker(DeliveryMode.UNORDERED)
    received = []
    broker.subscribe("orders", "svc", lambda e: received.append(e.payload))
    broker.publish("orders", key="o1", payload="hello")
    env.run()
    assert received == ["hello"]


def test_multiple_subscribers_each_receive_event():
    env, broker = make_broker(DeliveryMode.UNORDERED)
    a, b = [], []
    broker.subscribe("t", "a", lambda e: a.append(e.payload))
    broker.subscribe("t", "b", lambda e: b.append(e.payload))
    broker.publish("t", key="k", payload=1)
    env.run()
    assert a == [1] and b == [1]


def test_unordered_mode_can_reorder_same_key_events():
    env, broker = make_broker(DeliveryMode.UNORDERED,
                              base_latency=0.001, jitter=0.05)
    received = []
    broker.subscribe("t", "svc", lambda e: received.append(e.payload))
    for i in range(50):
        broker.publish("t", key="k", payload=i)
    env.run()
    assert sorted(received) == list(range(50))
    assert received != list(range(50)), "expected at least one reordering"


def test_fifo_mode_preserves_per_key_order():
    """CAUSAL delivery with no dependencies keeps same-key FIFO order."""
    env, broker = make_broker(DeliveryMode.CAUSAL,
                              base_latency=0.001, jitter=0.05)
    received = []
    broker.subscribe("t", "svc", lambda e: received.append(e.payload))
    for i in range(50):
        broker.publish("t", key="k", payload=i)
    env.run()
    assert received == list(range(50))


def test_fifo_mode_allows_cross_key_interleaving():
    env, broker = make_broker(DeliveryMode.CAUSAL,
                              base_latency=0.001, jitter=0.05)
    received = []
    broker.subscribe("t", "svc", lambda e: received.append(e.payload))
    for i in range(10):
        broker.publish("t", key=f"k{i % 3}", payload=(i % 3, i))
    env.run()
    for key in range(3):
        per_key = [i for (k, i) in received if k == key]
        assert per_key == sorted(per_key)


def test_causal_mode_delays_event_until_dependency_delivered():
    env, broker = make_broker(DeliveryMode.CAUSAL,
                              base_latency=0.001, jitter=0.0)
    received = []
    broker.subscribe("t", "svc", lambda e: received.append(e.payload))
    first = broker.publish("t", key="a", payload="payment")
    # Shipment on a different key depends causally on the payment event.
    broker.publish("t", key="b", payload="shipment",
                   causal_deps=[first.sequence])
    env.run()
    assert received.index("payment") < received.index("shipment")


def test_causal_mode_buffers_out_of_order_dependency():
    env, broker = make_broker(DeliveryMode.CAUSAL, base_latency=0.0,
                              jitter=0.0)
    received = []
    broker.subscribe("t", "svc", lambda e: received.append(e.payload))

    def scenario(env):
        # Publish the dependent event first; its dependency arrives later.
        dep_seq = 10_000_000  # a sequence that does not exist yet
        broker.publish("t", key="b", payload="late-dep",
                       causal_deps=[dep_seq])
        yield env.timeout(0.01)
        return None

    env.process(scenario(env))
    env.run(until=0.1)
    assert received == []  # never delivered: dependency never arrives


def test_causal_dependency_arriving_later_releases_buffered_event():
    env, broker = make_broker(DeliveryMode.CAUSAL, base_latency=0.0,
                              jitter=0.0)
    received = []
    broker.subscribe("t", "svc", lambda e: received.append(e.payload))

    def scenario(env):
        placeholder = broker.publish("t2", key="x", payload="dep")
        broker.publish("t", key="b", payload="second",
                       causal_deps=[placeholder.sequence])
        yield env.timeout(0.01)
        # Now deliver the dependency on the same topic/subscriber.
        broker.subscribe("t2", "svc2", lambda e: None)
        return None

    # The dependency was published on another topic, so subscriber "svc"
    # will never see it; the event stays buffered.
    env.process(scenario(env))
    env.run(until=0.1)
    assert received == []


@pytest.mark.parametrize("mode", list(DeliveryMode))
def test_generator_handler_fails_the_run(mode):
    """A handler runs to completion; one written as a generator would
    otherwise never run its body, so its delivery fails loudly."""
    env, broker = make_broker(mode, base_latency=0.0, jitter=0.0)
    done = []

    def handler(envelope):
        yield env.timeout(0.5)
        done.append(envelope.payload)

    broker.subscribe("t", "svc", handler)
    broker.publish("t", key="k", payload="work")
    with pytest.raises(SimulationError) as excinfo:
        env.run()
    # On the CAUSAL path the error surfaces through the drain process.
    error = excinfo.value.__cause__ or excinfo.value
    assert "'svc' returned <generator" in str(error)
    assert done == []


def test_delivery_log_records_subscriber_and_time():
    env, broker = make_broker(DeliveryMode.CAUSAL, base_latency=0.002,
                              jitter=0.0)
    broker.subscribe("t", "svc", lambda e: None)
    broker.publish("t", key="k", payload="x")
    env.run()
    deliveries = broker.deliveries("t")
    assert len(deliveries) == 1
    name, when, envelope = deliveries[0]
    assert name == "svc"
    assert when == 0.002
    assert envelope.payload == "x"


def test_deliveries_of_unknown_topic_is_empty():
    env, broker = make_broker(DeliveryMode.CAUSAL)
    assert broker.deliveries("nope") == []

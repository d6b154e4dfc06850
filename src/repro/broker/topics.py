"""Topics, subscriptions and the broker itself."""

from __future__ import annotations

import collections
import enum
import typing

from repro.broker.messages import EventEnvelope
from repro.runtime.environment import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment

Handler = typing.Callable[[EventEnvelope], None]


class DeliveryMode(enum.Enum):
    """Delivery guarantee offered to subscribers.

    UNORDERED
        Each event is delivered after an independently sampled latency;
        events may be reordered arbitrarily (the paper's baseline).
    CAUSAL
        An event is delivered only after all events it causally depends
        on (its ``causal_deps``) have been delivered to that subscriber;
        same-key FIFO order is also preserved.
    """

    UNORDERED = "unordered"
    CAUSAL = "causal"


class Subscription:
    """One subscriber attached to a topic.

    The handler is a plain callable that runs to completion and returns
    ``None``: a delivery is the call.  A handler that returns anything
    else (a generator, say) fails the run.
    """

    def __init__(self, env: "Environment", name: str, handler: Handler,
                 mode: DeliveryMode) -> None:
        self.env = env
        self.name = name
        self.handler = handler
        self.mode = mode
        self.delivered_sequences: set[int] = set()
        self.delivery_log: list[tuple[float, EventEnvelope]] = []
        # CAUSAL state ------------------------------------------------------
        self._key_queues: dict[str, collections.deque[EventEnvelope]] = (
            collections.defaultdict(collections.deque))
        self._key_busy: set[str] = set()
        self._causal_buffer: list[EventEnvelope] = []

    # ------------------------------------------------------------------
    def offer(self, envelope: EventEnvelope, latency: float) -> None:
        """Route ``envelope`` to this subscriber according to the mode."""
        if self.mode is DeliveryMode.UNORDERED:
            # Raw pooled-event callback: unordered delivery has no
            # process body to suspend (see Cluster._route).
            self.env.call_after(
                latency,
                lambda _event, envelope=envelope: self._invoke(envelope))
        else:
            queue = self._key_queues[envelope.key]
            queue.append(envelope)
            if envelope.key not in self._key_busy:
                self._key_busy.add(envelope.key)
                self.env.process(
                    self._drain_key(envelope.key, latency),
                    name=f"drain:{self.name}:{envelope.key}")

    def _drain_key(self, key: str, latency: float):
        queue = self._key_queues[key]
        delivered = self.delivered_sequences
        while queue:
            envelope = queue.popleft()
            if any(dep not in delivered for dep in envelope.causal_deps):
                # Park the head until its dependencies arrive; _poke()
                # re-checks it on every later delivery.
                self._causal_buffer.append(envelope)
                continue
            yield self.env.timeout(latency)
            self._invoke(envelope)
        self._key_busy.discard(key)

    def _poke(self) -> None:
        """Re-examine buffered causal events after a new delivery."""
        if not self._causal_buffer:
            return
        ready = [envelope for envelope in self._causal_buffer
                 if all(dep in self.delivered_sequences
                        for dep in envelope.causal_deps)]
        for envelope in ready:
            self._causal_buffer.remove(envelope)
            self._invoke(envelope)

    def _invoke(self, envelope: EventEnvelope) -> None:
        self.delivered_sequences.add(envelope.sequence)
        self.delivery_log.append((self.env.now, envelope))
        result = self.handler(envelope)
        if result is not None:
            raise SimulationError(
                f"subscriber {self.name!r} returned {result!r} on "
                f"{envelope.topic}/{envelope.key}; a handler runs to "
                f"completion and returns None")
        if self.mode is DeliveryMode.CAUSAL:
            self._poke()


class Topic:
    """A named event stream with zero or more subscribers."""

    def __init__(self, env: "Environment", name: str,
                 mode: DeliveryMode) -> None:
        self.env = env
        self.name = name
        self.mode = mode
        self.subscriptions: list[Subscription] = []
        self.publish_log: list[EventEnvelope] = []

    def subscribe(self, name: str, handler: Handler) -> Subscription:
        subscription = Subscription(self.env, name, handler, self.mode)
        self.subscriptions.append(subscription)
        return subscription

    def publish(self, envelope: EventEnvelope,
                latency_for: typing.Callable[[], float]) -> None:
        self.publish_log.append(envelope)
        for subscription in self.subscriptions:
            subscription.offer(envelope, latency_for())


class Broker:
    """Topic-based pub/sub with one delivery guarantee for all topics.

    Parameters
    ----------
    env:
        Simulation environment.
    default_mode:
        Delivery mode of every topic: UNORDERED for the eventual and
        transactional stacks, CAUSAL for the customized one.
    base_latency / jitter:
        Delivery latency is ``base_latency + U(0, jitter)`` sampled per
        (event, subscriber) pair.  A non-zero jitter is what allows
        UNORDERED mode to actually reorder events.
    """

    def __init__(self, env: "Environment",
                 default_mode: DeliveryMode = DeliveryMode.UNORDERED,
                 base_latency: float = 0.0005,
                 jitter: float = 0.0015) -> None:
        self.env = env
        self.default_mode = default_mode
        self.base_latency = base_latency
        self.jitter = jitter
        self._topics: dict[str, Topic] = {}
        self._rng = env.rng("broker")

    def topic(self, name: str) -> Topic:
        topic = self._topics.get(name)
        if topic is None:
            topic = Topic(self.env, name, self.default_mode)
            self._topics[name] = topic
        return topic

    def subscribe(self, topic_name: str, subscriber_name: str,
                  handler: Handler) -> Subscription:
        """Attach ``handler`` to ``topic_name``."""
        return self.topic(topic_name).subscribe(subscriber_name, handler)

    def publish(self, topic_name: str, key: str, payload: object,
                causal_deps: typing.Iterable[int] = ()) -> EventEnvelope:
        """Publish ``payload`` and return its envelope (for dep tracking)."""
        envelope = EventEnvelope(
            topic=topic_name, key=key, payload=payload,
            publish_time=self.env.now,
            causal_deps=tuple(sorted(causal_deps)))
        self.topic(topic_name).publish(envelope, self._sample_latency)
        return envelope

    def _sample_latency(self) -> float:
        return self.base_latency + self._rng.random() * self.jitter

    # ------------------------------------------------------------------
    # introspection used by auditors
    # ------------------------------------------------------------------
    def deliveries(self, topic_name: str) -> list[
            tuple[str, float, EventEnvelope]]:
        """All (subscriber, time, envelope) deliveries on a topic."""
        topic = self._topics.get(topic_name)
        if topic is None:
            return []
        entries = []
        for subscription in topic.subscriptions:
            for when, envelope in subscription.delivery_log:
                entries.append((subscription.name, when, envelope))
        entries.sort(key=lambda item: (item[1], item[2].sequence))
        return entries

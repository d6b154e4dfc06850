"""Unit tests for the Statefun-style dataflow runtime."""

import pytest

from repro.dataflow import (
    StatefulFunction,
    StatefunConfig,
    StatefunRuntime,
)
from repro.runtime import Environment, SimulationError


class CounterFn(StatefulFunction):
    """Counts messages per key; egresses the running total."""

    def invoke(self, context, payload):
        context.state["count"] = context.state.get("count", 0) + 1
        if payload == "report":
            context.egress("count", context.state["count"])
        return None


class ChainFn(StatefulFunction):
    """Forwards to CounterFn, demonstrating function-to-function sends."""

    def invoke(self, context, payload):
        context.state.setdefault("forwarded", 0)
        context.state["forwarded"] += 1
        context.send("counter", payload["key"], payload.get("msg", "x"))
        return None


class AckFn(StatefulFunction):
    """Acknowledges every request via egress (request/response bridge)."""

    def invoke(self, context, payload):
        context.state["last"] = payload
        context.egress("ack", {"echo": payload})
        return None


def make_runtime(seed=1, **config_kwargs):
    env = Environment(seed=seed)
    config_kwargs.setdefault("checkpoint_interval", 0.0)
    runtime = StatefunRuntime(env, StatefunConfig(**config_kwargs))
    runtime.register("counter", CounterFn())
    runtime.register("chain", ChainFn())
    runtime.register("ack", AckFn())
    return env, runtime


def test_message_updates_per_key_state():
    env, runtime = make_runtime()
    runtime.send_ingress("counter", "k1", "hit")
    runtime.send_ingress("counter", "k1", "hit")
    runtime.send_ingress("counter", "k2", "hit")
    env.run()
    assert runtime.state_of("counter", "k1")["count"] == 2
    assert runtime.state_of("counter", "k2")["count"] == 1


def test_unregistered_function_fails():
    env, runtime = make_runtime()
    runtime.send_ingress("ghost", "k", "x")
    with pytest.raises(SimulationError):
        env.run()


def test_function_to_function_send():
    env, runtime = make_runtime()
    runtime.send_ingress("chain", "c1", {"key": "k9"})
    env.run()
    assert runtime.state_of("chain", "c1")["forwarded"] == 1
    assert runtime.state_of("counter", "k9")["count"] == 1


def test_request_response_roundtrip():
    env, runtime = make_runtime()
    promise = runtime.request("ack", "a", {"n": 1}, request_id="r1")
    result = env.run(until=promise)
    assert result == {"echo": {"n": 1}}


def test_same_key_processed_sequentially():
    order = []

    class SlowFn(StatefulFunction):
        cpu_cost = 0.01

        def invoke(self, context, payload):
            order.append((payload, context.worker.env.now))

    env = Environment()
    runtime = StatefunRuntime(env, StatefunConfig(checkpoint_interval=0.0,
                                                  partitions=1))
    runtime.register("slow", SlowFn())
    for i in range(3):
        runtime.send_ingress("slow", "k", i)
    env.run()
    starts = [start for _, start in order]
    assert starts == sorted(starts)
    assert starts[1] - starts[0] >= 0.01


def test_partition_routing_is_deterministic():
    env1, runtime1 = make_runtime(seed=1, partitions=4)
    env2, runtime2 = make_runtime(seed=99, partitions=4)
    for key in ("a", "b", "c", "d", "e"):
        w1 = runtime1.worker_for(("counter", key)).index
        w2 = runtime2.worker_for(("counter", key)).index
        assert w1 == w2


def test_keys_spread_across_partitions():
    env, runtime = make_runtime(partitions=4)
    indexes = {runtime.worker_for(("counter", f"k{i}")).index
               for i in range(100)}
    assert len(indexes) == 4


def test_checkpoint_pauses_processing():
    env, runtime = make_runtime(checkpoint_interval=0.1,
                                checkpoint_sync=0.05)
    for i in range(5):
        runtime.send_ingress("counter", f"k{i}", "hit")
    env.run(until=0.5)
    assert runtime.checkpoints_taken >= 2


def test_failure_without_checkpoint_replays_everything():
    env, runtime = make_runtime()
    runtime.send_ingress("counter", "k", "hit")
    runtime.send_ingress("counter", "k", "hit")
    env.run(until=0.05)
    assert runtime.state_of("counter", "k")["count"] == 2

    def crash():
        yield from runtime.inject_failure()

    env.process(crash())
    env.run()
    # State was rebuilt by replaying the ingress log: same count, not 4.
    assert runtime.state_of("counter", "k")["count"] == 2


def test_failure_after_checkpoint_replays_only_tail():
    env, runtime = make_runtime(checkpoint_interval=0.0)
    runtime.send_ingress("counter", "k", "hit")
    env.run(until=0.05)

    def checkpoint_then_more():
        yield from runtime.take_checkpoint()
        runtime.send_ingress("counter", "k", "hit")
        yield env.timeout(0.05)
        yield from runtime.inject_failure()

    env.process(checkpoint_then_more())
    env.run()
    assert runtime.state_of("counter", "k")["count"] == 2
    assert runtime.recoveries == 1


def test_exactly_once_egress_across_replay():
    env, runtime = make_runtime()
    promise = runtime.request("ack", "a", {"n": 1}, request_id="r1")
    env.run(until=0.05)
    assert promise.triggered

    def crash():
        yield from runtime.inject_failure()

    env.process(crash())
    env.run()
    # The ack function ran twice (replay) but egressed only once.
    acks = [entry for entry in runtime.egress_log if entry[1] == "ack"]
    assert len(acks) == 1


def test_recovery_counts_and_pause_cost():
    env, runtime = make_runtime(recovery_pause=0.3)
    runtime.send_ingress("counter", "k", "hit")
    env.run(until=0.05)
    before = env.now

    def crash():
        yield from runtime.inject_failure()

    process = env.process(crash())
    env.run(until=process)
    assert env.now - before >= 0.3
    assert runtime.recoveries == 1


def test_envelope_cpu_charged_per_message():
    env = Environment()
    config = StatefunConfig(checkpoint_interval=0.0, partitions=1,
                            cores_per_partition=1, envelope_cpu=0.01,
                            delivery_latency=0.0)
    runtime = StatefunRuntime(env, config)
    runtime.register("counter", CounterFn())
    for i in range(5):
        runtime.send_ingress("counter", f"k{i}", "hit")
    env.run()
    # 5 messages on one core at >= 0.01s each.
    assert env.now >= 0.05


def test_total_queued_reflects_backlog():
    env, runtime = make_runtime(partitions=1, cores_per_partition=1)
    for i in range(10):
        runtime.send_ingress("counter", f"k{i}", "hit")
    assert runtime.total_queued == 0  # not yet delivered
    env.run(until=runtime.config.delivery_latency * 1.5)
    assert runtime.total_queued > 0
    env.run()
    assert runtime.total_queued == 0


def test_state_of_unknown_address_is_none():
    env, runtime = make_runtime()
    assert runtime.state_of("counter", "never") is None


class SuspendingMutatorFn(StatefulFunction):
    """Written as a generator: mutates state, waits, mutates again."""

    def invoke(self, context, payload):
        context.state["phase"] = 1
        yield context.runtime.env.timeout(payload["hold"])
        context.state["phase"] = 2


def test_generator_function_fails_the_run():
    """A function runs to completion: one written as a generator would
    never run its body, so its first delivery fails loudly instead."""
    env, runtime = make_runtime()
    runtime.register("mutator", SuspendingMutatorFn())
    runtime.send_ingress("mutator", "m1", {"hold": 0.5})
    with pytest.raises(SimulationError,
                       match=r"\('mutator', 'm1'\) returned <generator"):
        env.run()
    assert runtime.state_of("mutator", "m1") == {}
    assert runtime.messages_processed == 0

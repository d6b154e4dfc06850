"""Property-based tests on the concurrency substrates.

These drive the lock manager, broker and dataflow through randomized
schedules generated by hypothesis and check the invariants that the
benchmark's correctness rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import Broker, DeliveryMode
from repro.runtime import Environment
from repro.txn import (
    LockManager,
    LockMode,
    TransactionAborted,
    TransactionContext,
)


# ---------------------------------------------------------------------------
# Lock manager: safety under arbitrary acquire/release schedules.
# ---------------------------------------------------------------------------
@st.composite
def lock_schedules(draw):
    n_txns = draw(st.integers(min_value=2, max_value=5))
    steps = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n_txns - 1),
        st.sampled_from(["S", "X"]),
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False)),
        min_size=1, max_size=20))
    return n_txns, steps


@given(lock_schedules())
@settings(max_examples=60, deadline=None)
def test_lock_manager_never_grants_conflicting_locks(schedule):
    """At no moment may an X lock coexist with any other lock."""
    n_txns, steps = schedule
    env = Environment(seed=1)
    lock = LockManager(env, "L")
    contexts = [TransactionContext(float(index))
                for index in range(n_txns)]
    violations = []

    def check_invariant():
        holders = lock.holders()
        exclusive = [ctx for ctx, mode in holders
                     if mode is LockMode.EXCLUSIVE]
        if exclusive and len(holders) > 1:
            violations.append([(ctx.txid, mode.value)
                               for ctx, mode in holders])

    def actor(ctx, mode_name, hold):
        mode = LockMode.SHARED if mode_name == "S" else LockMode.EXCLUSIVE
        try:
            yield from lock.acquire(ctx, mode)
        except TransactionAborted:
            return
        check_invariant()
        yield env.timeout(hold)
        check_invariant()
        lock.release(ctx)

    for txn_index, mode_name, hold in steps:
        env.process(actor(contexts[txn_index], mode_name, hold))
    env.run(until=10.0)
    assert violations == []


@given(lock_schedules())
@settings(max_examples=60, deadline=None)
def test_lock_schedules_always_terminate(schedule):
    """Wait-die means no schedule can deadlock: everything finishes."""
    n_txns, steps = schedule
    env = Environment(seed=2)
    lock = LockManager(env, "L")
    finished = []

    def actor(index, ctx, mode_name, hold):
        mode = LockMode.SHARED if mode_name == "S" else LockMode.EXCLUSIVE
        try:
            yield from lock.acquire(ctx, mode)
            yield env.timeout(hold)
            lock.release(ctx)
        except TransactionAborted:
            lock.release(ctx)
        finished.append(index)

    for step_index, (txn_index, mode_name, hold) in enumerate(steps):
        # Each step uses a fresh context so a died ctx does not poison
        # later steps of the schedule.
        ctx = TransactionContext(float(step_index))
        env.process(actor(step_index, ctx, mode_name, hold))
    env.run(until=60.0)
    assert sorted(finished) == list(range(len(steps)))
    assert lock.holders() == []


# ---------------------------------------------------------------------------
# Broker: delivery-mode guarantees under random publish patterns.
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=0, max_value=99)),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_fifo_broker_preserves_per_key_order(messages, seed):
    """CAUSAL delivery with no dependencies keeps same-key FIFO order."""
    env = Environment(seed=seed)
    broker = Broker(env, default_mode=DeliveryMode.CAUSAL,
                    base_latency=0.001, jitter=0.02)
    received = []
    broker.subscribe("t", "svc",
                     lambda envelope: received.append(
                         (envelope.key, envelope.payload)))
    for key, payload in messages:
        broker.publish("t", key=key, payload=payload)
    env.run()
    assert len(received) == len(messages)
    for key in ("a", "b", "c"):
        sent = [payload for k, payload in messages if k == key]
        got = [payload for k, payload in received if k == key]
        assert got == sent


@given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.integers(min_value=0, max_value=99)),
                min_size=1, max_size=30),
       st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_unordered_broker_loses_nothing(messages, seed):
    env = Environment(seed=seed)
    broker = Broker(env, default_mode=DeliveryMode.UNORDERED,
                    base_latency=0.001, jitter=0.05)
    received = []
    broker.subscribe("t", "svc",
                     lambda envelope: received.append(envelope.payload))
    for key, payload in messages:
        broker.publish("t", key=key, payload=payload)
    env.run()
    assert sorted(received) == sorted(payload for _, payload in messages)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_causal_broker_respects_dependency_chains(data):
    """Events published as a per-key chain are delivered in chain order,
    whatever the latency jitter does."""
    env = Environment(seed=data.draw(st.integers(0, 99)))
    broker = Broker(env, default_mode=DeliveryMode.CAUSAL,
                    base_latency=0.001, jitter=0.05)
    received = []
    broker.subscribe("t", "svc",
                     lambda envelope: received.append(envelope.payload))
    chain_length = data.draw(st.integers(min_value=2, max_value=10))
    previous = None
    for index in range(chain_length):
        deps = [previous.sequence] if previous is not None else []
        previous = broker.publish("t", key="k", payload=index,
                                  causal_deps=deps)
    env.run()
    assert received == list(range(chain_length))

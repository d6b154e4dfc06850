"""Kernel round-2 invariants: same-tick bucket, event pool, run(until=...).

The dispatch loop interleaves a same-tick bucket with the binary heap.
That may not change the kernel's contract: events are processed in
strict ``(time, sequence)`` order, where sequence is schedule-call
order.  The property tests here compare the real kernel against a
pure-``heapq`` reference model over randomly generated schedules,
including events scheduled from inside callbacks (the bucket path) and
events pushed through every scheduling site the kernel has.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Environment, SimulationError
from repro.runtime.events import PENDING, PooledEvent

# Coarse delay grid so that generated schedules collide on the same
# timestamp often — collisions are exactly what the bucket/heap
# ordering guard has to get right.
_delays = st.sampled_from([0.0, 0.5, 1.0, 1.5])

#: Every way the kernel pushes an event onto its timeline.  ``succeed``
#: is zero-delay by definition.  The grain-call path's inline copies of
#: ``call_after`` and ``trigger_after`` are pinned by the actor-path
#: order test in ``test_event_budgets.py``.
_SITES = ("schedule", "call_after", "trigger_after", "timeout", "succeed")


def _specs(sites):
    return st.tuples(st.sampled_from(sites), _delays).map(
        lambda spec: (spec[0], 0.0) if spec[0] == "succeed" else spec)


def _schedules(sites=("schedule",)):
    """Root schedules plus per-root follow-up schedules issued from
    inside the root's callback (exercising mid-dispatch scheduling)."""
    specs = _specs(sites)
    return st.lists(st.tuples(specs, st.lists(specs, max_size=3)),
                    min_size=1, max_size=12)


def _reference(roots) -> list[tuple[object, float]]:
    """``(label, time)`` in dispatch order per a plain ``(time, seq)``
    heap."""
    heap: list[tuple[float, int, object]] = []
    fired = []
    seq = 0

    def push(now: float, label, spec) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (now + spec[1], seq, label))

    for index, (spec, _followups) in enumerate(roots):
        push(0.0, index, spec)
    while heap:
        now, _, label = heapq.heappop(heap)
        fired.append((label, now))
        if isinstance(label, int):
            for sub, spec in enumerate(roots[label][1]):
                push(now, (label, sub), spec)
    return fired


def _kernel_order(roots, until: float | None = None) -> list:
    """Dispatch order from the real Environment for the same schedule,
    each entry pushed through the site its spec names."""
    env = Environment()
    order = []

    def push(label, spec, followups) -> None:
        def record(_event):
            order.append(label)
            for sub, sub_spec in enumerate(followups):
                push((label, sub), sub_spec, ())

        site, delay = spec
        if site == "call_after":
            env.call_after(delay, record)
        elif site == "timeout":
            env.timeout(delay).callbacks.append(record)
        else:
            event = env.event()
            event.callbacks.append(record)
            if site == "schedule":
                event._value = None  # pre-triggered: fires when dispatched
                env.schedule(event, delay)
            elif site == "trigger_after":
                event.trigger_after(delay)
            else:
                event.succeed()

    for index, (spec, followups) in enumerate(roots):
        push(index, spec, followups)
    env.run(until=until)
    if until is not None:
        assert env.now == until
    return order


@settings(max_examples=200, deadline=None)
@given(_schedules())
def test_batched_dispatch_matches_heap_reference(roots):
    assert _kernel_order(roots) == [label for label, _ in _reference(roots)]


@settings(max_examples=100, deadline=None)
@given(_schedules(), st.floats(min_value=0.0, max_value=2.0))
def test_batched_dispatch_respects_until(roots, stop_time):
    """run(until=t) processes exactly the reference prefix with time <= t."""
    expected = [label for label, time in _reference(roots)
                if time <= stop_time]
    assert _kernel_order(roots, until=stop_time) == expected


@settings(max_examples=200, deadline=None)
@given(_schedules(_SITES))
def test_every_push_site_orders_by_time_then_sequence(roots):
    """Each scheduling site takes one sequence number and pushes a
    ``(time, seq, event)`` entry: mixed freely, they still dispatch in
    the reference order."""
    assert _kernel_order(roots) == [label for label, _ in _reference(roots)]


# ---------------------------------------------------------------------------
# Event free-list safety
# ---------------------------------------------------------------------------
def test_pooled_event_is_pristine_after_release():
    """A recycled event carries nothing over from its previous life."""
    env = Environment()
    fired = []
    env.call_after(0.0, fired.append)
    env.run()
    assert len(fired) == 1
    used = fired[0]
    assert type(used) is PooledEvent

    recycled = env.acquire_event()
    assert recycled is used  # the free-list actually recycles
    assert recycled.callbacks == []  # no stale callbacks
    assert not recycled.triggered  # value reset to PENDING
    assert recycled._value is PENDING
    assert recycled.ok and not recycled.defused


def test_pooled_event_reuse_does_not_refire_old_callbacks():
    env = Environment()
    calls = []
    env.call_after(0.0, lambda _event: calls.append("first"))
    env.run()
    env.call_after(0.0, lambda _event: calls.append("second"))
    env.run()
    assert calls == ["first", "second"]


def test_failed_pooled_event_resets_failure_state():
    env = Environment()
    event = env.acquire_event()
    event.fail(RuntimeError("boom"))
    event.defuse()
    env.run()
    recycled = env.acquire_event()
    assert recycled is event
    assert recycled.ok and not recycled.defused and not recycled.triggered
    # ...and reusing it succeeds cleanly.
    recycled.succeed("fine")
    env.run()


def test_pool_is_bounded():
    from repro.runtime.environment import _POOL_MAX

    env = Environment()
    for _ in range(_POOL_MAX + 100):
        env.call_after(0.0, lambda _event: None)
    env.run()
    assert len(env._pool) <= _POOL_MAX


def _call_after_storm(env, iterations):
    """Pooled transit callbacks — the message hot path."""
    for _ in range(iterations):
        env.call_after(0.001, lambda _event: None)
        yield env.timeout(0.001)


def _process_churn(env, iterations):
    """Spawn-and-finish of short-lived processes (bootstrap events)."""
    def leaf():
        yield env.timeout(0.0005)

    for _ in range(iterations):
        yield env.process(leaf())


@pytest.mark.parametrize("storm", [_call_after_storm, _process_churn])
def test_pool_serves_every_acquire_after_warm_up(storm):
    """The free-list actually serves the hot paths: one acquire per
    iteration, and past the first couple every one is a recycled
    event."""
    iterations = 2_000
    env = Environment(seed=1)
    env.process(storm(env, iterations))
    env.run()
    assert env.pool_acquires >= iterations
    assert env.pool_hits / env.pool_acquires > 0.99


# ---------------------------------------------------------------------------
# run(until=<failed event>) regression pins
# ---------------------------------------------------------------------------
def test_run_until_failing_event_defuses_and_reraises():
    env = Environment()
    event = env.event()

    def failer():
        yield env.timeout(0.1)
        event.fail(RuntimeError("boom"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=event)
    # Defused by the stop-event hook: no SimulationError afterwards.
    assert event.defused
    env.run()


def test_run_until_already_processed_failed_event_reraises():
    """until= an event that failed *in an earlier run* still raises.

    The failure was defused back then (someone handled it), but asking
    to run until that event is an explicit read of its outcome — the
    caller must see the original exception, not ``None``.
    """
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("boom"))
    event.defuse()
    env.run()  # processes the (defused) failure without raising
    assert event.processed and not event.ok

    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=event)
    # And it stays repeatable — the event is not consumed.
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=event)


def test_run_until_undefused_failed_event_is_handled_not_crashed():
    """run(until=ev) counts as handling ev's failure at dispatch time."""
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("boom"))
    # No defuse here: without the until= hook this dispatch would
    # surface SimulationError; with it, the original exception arrives.
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=event)


def test_unhandled_failed_event_still_raises_simulation_error():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(SimulationError):
        env.run()

"""Unit tests for the discrete-event simulation kernel."""

import ast
import pathlib

import pytest

import repro.runtime

from repro.runtime import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 5.0
    assert env.now == 5.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    process = env.process(proc(env))
    result = env.run(until=process)
    assert result == "done"


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker(env, "a", 2.0))
    env.process(worker(env, "b", 1.0))
    env.process(worker(env, "c", 2.0))
    env.run()
    assert log == [(1.0, "b"), (2.0, "a"), (2.0, "c")]


def test_event_succeed_resumes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append(value)

    def opener(env):
        yield env.timeout(1.0)
        gate.succeed(42)

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [42]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            return str(exc)

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    process = env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert process.value == "boom"


def test_unhandled_event_failure_surfaces():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("nobody listening"))
    with pytest.raises(SimulationError):
        env.run()


def test_defused_failure_does_not_surface():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("handled elsewhere"))
    gate.defuse()
    env.run()  # must not raise


def test_trigger_after_fixes_the_outcome_now_and_fires_later():
    env = Environment()
    event = env.event()
    seen = []

    def waiter():
        value = yield event
        seen.append((env.now, value))

    env.process(waiter())
    env.run()  # waiter is parked on the pending event
    before = env.events_processed
    event.trigger_after(1.5, "late")
    assert event.triggered and not event.processed
    with pytest.raises(RuntimeError):
        event.succeed("again")
    with pytest.raises(RuntimeError):
        event.trigger_after(0.1)
    env.run()
    assert seen == [(1.5, "late")]
    # One timeline entry carries the wait and the wake-up (the second
    # event is the waiter process completing).
    assert env.events_processed - before == 2


def test_trigger_after_failure_raises_in_waiter_at_arrival():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(waiter())
    event.trigger_after(0.25, ValueError("boom"), ok=False)
    assert not event.ok
    env.run()
    assert caught == [(0.25, "boom")]


def test_trigger_after_zero_delay_orders_like_succeed():
    env = Environment()
    order = []
    first, second = env.event(), env.event()
    first.callbacks.append(lambda _event: order.append("first"))
    second.callbacks.append(lambda _event: order.append("second"))
    first.trigger_after(0.0)
    second.succeed()
    env.run()
    assert order == ["first", "second"]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)
    with pytest.raises(RuntimeError):
        gate.fail(ValueError())


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    process = env.process(parent(env))
    env.run()
    assert process.value == "child-result"


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise KeyError("missing")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "caught"

    process = env.process(parent(env))
    env.run()
    assert process.value == "caught"


def test_yield_non_event_kills_process():
    env = Environment()

    def bad(env):
        yield 42  # type: ignore[misc]

    process = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()
    assert not process.ok


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, [results[t1], results[t2]])

    process = env.process(proc(env))
    env.run()
    assert process.value == (3.0, ["a", "b"])


def test_any_of_fires_on_first_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, t1 in results, t2 in results)

    process = env.process(proc(env))
    env.run()
    assert process.value == (1.0, True, False)


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 0.0


def test_interrupt_raises_inside_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", "wake up", 2.0)


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_no_scheduling_call_accepts_a_negative_delay():
    env = Environment()
    env.run(until=1.0)
    event = env.event()
    for schedule in (
            lambda: env.call_after(-0.5, lambda _event: None),
            lambda: event.trigger_after(-0.5, "early"),
            lambda: event.trigger_after(float("nan"), "never"),
            lambda: env.schedule(env.event(), delay=-0.5)):
        with pytest.raises(ValueError, match="negative delay|nan"):
            schedule()
    # Nothing was queued, and the rejected event is still pending.
    assert env.peek() == float("inf") and not event.triggered
    event.trigger_after(0.5, "on time")
    assert env.run(until=event) == "on time" and env.now == 1.5


def test_rng_streams_are_deterministic_and_independent():
    env1 = Environment(seed=7)
    env2 = Environment(seed=7)
    env3 = Environment(seed=8)
    a1 = [env1.rng("a").random() for _ in range(5)]
    a2 = [env2.rng("a").random() for _ in range(5)]
    a3 = [env3.rng("a").random() for _ in range(5)]
    b1 = [env1.rng("b").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != a3
    assert a1 != b1


def test_rng_stream_is_cached():
    env = Environment(seed=1)
    assert env.rng("x") is env.rng("x")


class TestResource:
    def test_grants_up_to_capacity_immediately(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        r1 = resource.request()
        r2 = resource.request()
        r3 = resource.request()
        assert r1.granted and r2.granted
        assert not r3.granted
        assert resource.queue_length == 1

    def test_release_wakes_fifo_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(env, name, hold):
            yield from resource.use(hold)
            order.append((name, env.now))

        env.process(user(env, "a", 2.0))
        env.process(user(env, "b", 1.0))
        env.process(user(env, "c", 1.0))
        env.run()
        assert order == [("a", 2.0), ("b", 3.0), ("c", 4.0)]

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_release_ungranted_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.request()
        blocked = resource.request()
        with pytest.raises(RuntimeError):
            resource.release(blocked)

    def test_cancel_removes_waiting_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        held = resource.request()
        blocked = resource.request()
        blocked.cancel()
        resource.release(held)
        assert resource.in_use == 0

    def test_abandoned_waiter_withdraws_its_request(self):
        """A waiter interrupted while queued must not be granted a slot
        later: nobody would release it."""
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(name, hold):
            try:
                yield from resource.use(hold)
            except Interrupt:
                order.append((name, "interrupted", env.now))
                return
            order.append((name, env.now))

        env.process(user("a", 2.0))
        victim = env.process(user("b", 1.0))
        env.process(user("c", 1.0))
        env.process(user("d", 1.0))

        def interrupter():
            yield env.timeout(1.0)
            victim.interrupt()

        env.process(interrupter())
        env.run()
        # Surviving waiters keep their FIFO order and nothing leaks.
        assert order == [("b", "interrupted", 1.0), ("a", 2.0),
                         ("c", 3.0), ("d", 4.0)]
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_closed_waiter_frees_a_slot_granted_but_not_yet_taken(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        holder = resource.request()
        waiting = resource.use(1.0)
        next(waiting)  # queued behind ``holder``
        resource.release(holder)  # grant triggered, not yet dispatched
        assert resource.in_use == 1
        waiting.close()
        assert resource.in_use == 0
        env.run()
        assert resource.in_use == 0

    def test_hold_is_the_callback_form_of_use(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(name, hold):
            yield from resource.use(hold)
            order.append((name, env.now))

        resource.hold(2.0, lambda _event: order.append(("a", env.now)))
        env.process(user("b", 1.0))
        env.run(until=0.5)  # b has queued behind a
        resource.hold(1.0, lambda _event: order.append(
            ("c", env.now, resource.in_use)))
        env.run()
        # FIFO across both forms; c's slot is free again by the time
        # its continuation runs.
        assert order == [("a", 2.0), ("b", 3.0), ("c", 4.0, 0)]

    def test_uncontended_hold_costs_one_event(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        resource.hold(0.5, lambda _event: None)
        env.run()
        assert env.events_processed == 1
        assert resource.utilisation() == pytest.approx(0.5)

    def test_utilisation_accounting(self):
        env = Environment()
        resource = Resource(env, capacity=2)

        def user(env):
            yield from resource.use(4.0)

        env.process(user(env))
        env.run(until=8.0)
        # one of two slots busy for half the horizon -> 25%
        assert resource.utilisation() == pytest.approx(0.25)


def test_kernel_imports_nothing_above_it():
    """The kernel is the bottom layer: no module under ``runtime/``
    imports the control plane, the drivers or the apps — at any level,
    function bodies and ``TYPE_CHECKING`` blocks included."""
    upward = ("repro.control", "repro.core", "repro.apps")
    offenders = []
    package = pathlib.Path(repro.runtime.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}"
                          for name in names
                          if name.startswith(upward)]
    assert offenders == []

"""Unit tests for the discrete-event simulation kernel."""

import ast
import dataclasses
import pathlib

import pytest

import repro.runtime

from repro.actors import Cluster, Grain
from repro.config import AppConfig
from repro.costs import CostModel
from repro.runtime import (
    AllOf,
    Environment,
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


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 0.0


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
    env.run()
    assert env.now == 1.0 and not event.triggered
    event.trigger_after(0.5, "on time")
    assert env.run(until=event) == "on time" and env.now == 1.5


class Plain(Grain):
    def plain(self):
        return self.key


def _nan_cost(env, cluster):
    """A second cluster on the same clock whose turns would each keep
    a core for NaN seconds."""
    nan_cluster = Cluster(env, AppConfig(
        silos=1, cores_per_silo=1,
        costs=dataclasses.replace(cluster.costs, grain_cpu=float("nan"))))
    env.run(until=nan_cluster.grain_ref(Plain, "k").call("plain"))


def _nan_cost_behind_a_busy_core(env, cluster):
    cluster.grain_ref(Plain, "k").call("plain")
    _nan_cost(env, cluster)


@pytest.mark.parametrize("call", [
    lambda env, cluster: env.timeout(float("nan")),
    lambda env, cluster: env.schedule(env.event(), float("nan")),
    lambda env, cluster: env.call_after(float("nan"), lambda _event: None),
    lambda env, cluster: env.event().trigger_after(float("nan")),
    _nan_cost,
    _nan_cost_behind_a_busy_core,
    lambda env, cluster: env.run(until=float("nan")),
], ids=["timeout", "schedule", "call_after", "trigger_after", "cpu_cost",
        "cpu_cost-busy-core", "run-until"])
def test_nan_delay_or_stop_time_is_rejected(call):
    """A NaN compares false with everything, so a check written as
    ``delay < 0`` lets it through and the clock becomes NaN.  A grain
    turn's CPU cost is a ``CostModel`` field, rejected where the model
    is built, so no turn takes or queues for a core with it: rejected
    only when a queued turn is granted its core, it would keep that
    core for good and starve the silo."""
    env = Environment()
    cluster = Cluster(env, AppConfig(silos=1, cores_per_silo=1))
    (silo,) = cluster.silos

    def ticker(env):
        for _ in range(3):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=1.5)
    with pytest.raises(ValueError):
        call(env, cluster)
    env.run()
    assert env.now == 3.0 and silo.busy == 0 and not silo.waiting


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


def zero_wire(**costs):
    """A cost model whose grain calls take no time on the wire."""
    return CostModel(local_latency=0.0, remote_latency=0.0,
                     remote_jitter=0.0, **costs)


class TestSiloCores:
    def test_release_wakes_fifo_waiter(self):
        # Grain turns on a one-core silo over a zero-latency wire, all
        # sent at 0: each turn holds the core for 1 s.
        env = Environment()
        cluster = Cluster(env, AppConfig(silos=1, cores_per_silo=1,
                                         costs=zero_wire(grain_cpu=1.0)))
        (silo,) = cluster.silos
        order = []

        class Holder(Grain):
            def work(self):
                order.append((self.key, env.now, silo.busy))

        for key in "abc":
            cluster.grain_ref(Holder, key).call("work")
        env.run()
        # FIFO; a core is released (and handed to the next waiter)
        # before the turn's body runs.
        assert order == [("a", 1.0, 1), ("b", 2.0, 1), ("c", 3.0, 0)]

    def test_utilisation_accounting(self):
        # One grain turn holding a core of a two-core silo for 4 s.
        env = Environment()
        cluster = Cluster(env, AppConfig(silos=1, cores_per_silo=2,
                                         costs=zero_wire(grain_cpu=4.0)))
        (silo,) = cluster.silos

        class Busy(Grain):
            def work(self):
                return self.key

        cluster.grain_ref(Busy, "a").call("work")
        env.run(until=8.0)
        # one of two cores busy for half the horizon -> 25%
        assert silo.utilisation() == pytest.approx(0.25)


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

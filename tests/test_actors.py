"""Unit tests for the virtual-actor runtime."""

import pytest

from repro.actors import (
    Cluster,
    ConsistentHashPlacement,
    Grain,
    GrainCallError,
)
from repro.actors.errors import MessageDropped, UnknownGrainType
from repro.config import AppConfig
from repro.costs import CostModel
from repro.runtime import Environment, SimulationError


class Counter(Grain):
    """Minimal stateful grain used across tests."""

    def __init__(self):
        super().__init__()
        self.value = 0

    def increment(self, by=1):
        self.value += by
        return self.value
        yield  # pragma: no cover - generator marker

    def get(self):
        return self.value
        yield  # pragma: no cover - generator marker


class Greeter(Grain):
    def greet(self, name):
        yield self.env.timeout(0.001)
        return f"hello {name} from {self.key}"


class Relay(Grain):
    """Calls another grain (for inter-grain messaging tests)."""

    def forward(self, target_key, by):
        ref = self.cluster.grain_ref(Counter, target_key)
        result = yield self.call(ref, "increment", by)
        return result


def make_cluster(seed=1, **config_kwargs):
    env = Environment(seed=seed)
    cluster = Cluster(env, AppConfig(**config_kwargs))
    return env, cluster


def call_sync(env, ref, method, *args, **kwargs):
    promise = ref.call(method, *args, **kwargs)
    return env.run(until=promise)


def test_grain_call_returns_method_result():
    env, cluster = make_cluster()
    ref = cluster.grain_ref(Greeter, "g1")
    assert call_sync(env, ref, "greet", "world") == "hello world from g1"


def test_grain_state_persists_across_calls():
    env, cluster = make_cluster()
    ref = cluster.grain_ref(Counter, "c1")
    assert call_sync(env, ref, "increment") == 1
    assert call_sync(env, ref, "increment", 5) == 6
    assert call_sync(env, ref, "get") == 6


def test_different_keys_are_different_activations():
    env, cluster = make_cluster()
    a = cluster.grain_ref(Counter, "a")
    b = cluster.grain_ref(Counter, "b")
    call_sync(env, a, "increment")
    assert call_sync(env, b, "get") == 0


def test_activation_created_on_demand_once():
    env, cluster = make_cluster()
    ref = cluster.grain_ref(Counter, "x")
    assert cluster.total_activations == 0
    call_sync(env, ref, "increment")
    assert cluster.total_activations == 1
    call_sync(env, ref, "increment")
    assert cluster.total_activations == 1


def test_unknown_method_fails_call():
    env, cluster = make_cluster()
    ref = cluster.grain_ref(Counter, "x")
    with pytest.raises(GrainCallError):
        call_sync(env, ref, "no_such_method")


def test_exception_in_method_propagates_to_caller():
    class Exploder(Grain):
        def boom(self):
            raise ValueError("bang")
            yield  # pragma: no cover

    env, cluster = make_cluster()
    ref = cluster.grain_ref(Exploder, "x")
    with pytest.raises(ValueError, match="bang"):
        call_sync(env, ref, "boom")


def test_grain_failure_does_not_kill_activation():
    class Flaky(Grain):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def work(self):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("first call fails")
            return self.calls
            yield  # pragma: no cover

    env, cluster = make_cluster()
    ref = cluster.grain_ref(Flaky, "x")
    with pytest.raises(RuntimeError):
        call_sync(env, ref, "work")
    assert call_sync(env, ref, "work") == 2


def test_inter_grain_call():
    env, cluster = make_cluster()
    relay = cluster.grain_ref(Relay, "r")
    assert call_sync(env, relay, "forward", "c9", 7) == 7
    counter = cluster.grain_ref(Counter, "c9")
    assert call_sync(env, counter, "get") == 7


def test_nonreentrant_grain_serialises_messages():
    class Slow(Grain):
        def __init__(self):
            super().__init__()
            self.active = 0
            self.max_active = 0

        def work(self):
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            yield self.env.timeout(0.01)
            self.active -= 1
            return self.max_active

    env, cluster = make_cluster()
    ref = cluster.grain_ref(Slow, "s")
    promises = [ref.call("work") for _ in range(5)]
    for promise in promises:
        env.run(until=promise)
    assert call_sync(env, ref, "work") == 1


def test_reentrant_grain_interleaves_messages():
    class SlowReentrant(Grain):
        reentrant = True

        def __init__(self):
            super().__init__()
            self.active = 0
            self.max_active = 0

        def work(self):
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            yield self.env.timeout(0.01)
            self.active -= 1
            return self.max_active

    env, cluster = make_cluster()
    ref = cluster.grain_ref(SlowReentrant, "s")
    promises = [ref.call("work") for _ in range(5)]
    for promise in promises:
        env.run(until=promise)
    assert call_sync(env, ref, "work") > 1


def test_cpu_cost_charged_on_silo():
    env, cluster = make_cluster(silos=1, cores_per_silo=1,
                                costs=CostModel(grain_cpu=0.5))

    class Heavy(Grain):
        def work(self):
            return "done"
            yield  # pragma: no cover

    ref = cluster.grain_ref(Heavy, "h")
    call_sync(env, ref, "work")
    assert env.now >= 0.5


def test_single_core_silo_queues_work():
    env, cluster = make_cluster(silos=1, cores_per_silo=1,
                                costs=CostModel(grain_cpu=0.1))

    class Busy(Grain):
        def work(self):
            return self.env.now
            yield  # pragma: no cover

    # Two different grains on the same silo contend for its single core.
    a = cluster.grain_ref(Busy, "a")
    b = cluster.grain_ref(Busy, "b")
    pa = a.call("work")
    pb = b.call("work")
    env.run(until=pa)
    env.run(until=pb)
    finish_times = sorted([pa.value, pb.value])
    assert finish_times[1] - finish_times[0] >= 0.1


def test_string_grain_ref_requires_registration():
    env, cluster = make_cluster()
    with pytest.raises(UnknownGrainType):
        cluster.grain_ref("Counter", "x")
    cluster.register_grain(Counter)
    ref = cluster.grain_ref("Counter", "x")
    assert call_sync(env, ref, "increment") == 1


def test_grain_references_are_interned_per_cluster():
    env, cluster = make_cluster()
    ref = cluster.grain_ref(Counter, "x")
    assert cluster.grain_ref(Counter, "x") is ref
    assert cluster.grain_ref(Counter, "y") is not ref
    # Exceptions are not cached: an unknown name raises every time,
    # and once registered it names the very same reference.
    for _ in range(2):
        with pytest.raises(UnknownGrainType):
            cluster.grain_ref("Counter", "x")
    cluster.register_grain(Counter)
    assert cluster.grain_ref("Counter", "x") is ref
    # Two clusters never share one: a reference routes on its own.
    _, other = make_cluster()
    theirs = other.grain_ref(Counter, "x")
    assert theirs is not ref and theirs.cluster is other
    assert ref.cluster is cluster


def test_message_drop_fails_call():
    env, cluster = make_cluster(drop_probability=1.0)
    ref = cluster.grain_ref(Counter, "x")
    with pytest.raises(MessageDropped):
        call_sync(env, ref, "increment")
    assert cluster.messages_dropped == 1


def test_tell_swallows_drop_failures():
    env, cluster = make_cluster(drop_probability=1.0)
    ref = cluster.grain_ref(Counter, "x")
    ref.tell("increment")
    env.run()  # must not raise


class Doomed(Grain):
    """Fails every way a one-way message can be lost."""

    reentrant = True
    ran: list = []

    def boom(self):
        self.ran.append("boom")
        raise ValueError("bang")

    def slow(self):
        self.ran.append("slow")
        yield self.env.timeout(0.01)
        self.ran.append("woke")

    def ask(self, method):
        return (yield self.call(
            self.cluster.grain_ref(Doomed, "other"), method))


def test_tell_to_a_raising_grain_is_lost_silently():
    Doomed.ran = []
    env, cluster = make_cluster()
    cluster.grain_ref(Doomed, "x").tell("boom")
    env.run()  # no SimulationError: nobody waits on a tell
    assert Doomed.ran == ["boom"]
    assert cluster.messages_dropped == 0
    assert cluster.membership.unavailable_failures == 0


def test_dropped_tell_is_lost_silently_and_counted():
    Doomed.ran = []
    env, cluster = make_cluster(drop_probability=1.0)
    cluster.grain_ref(Doomed, "x").tell("boom")
    env.run()
    assert Doomed.ran == [] and cluster.messages_dropped == 1


@pytest.mark.parametrize("crash_at, trail", [
    (0.005, []),                 # holding its core: the body never ran
    (0.015, ["slow"]),           # the body waits on its timeout
])
def test_tell_caught_by_a_crash_is_lost_silently_and_counted(
        crash_at, trail, instant_failure_detection):
    Doomed.ran = []
    env, cluster = make_cluster(silos=2, costs=CostModel(grain_cpu=0.01))
    ref = cluster.grain_ref(Doomed, "x")
    ref.tell("slow")
    env.run(until=crash_at)
    cluster.crash_silo(cluster.placement.place("Doomed", "x"))
    env.run()
    assert Doomed.ran == trail  # an abandoned body never resumes
    assert cluster.membership.unavailable_failures == 1


def test_failing_call_still_reaches_its_caller():
    env, cluster = make_cluster()
    with pytest.raises(ValueError, match="bang"):
        call_sync(env, cluster.grain_ref(Doomed, "x"), "boom")
    # Through a grain: the failure is raised at the caller's yield.
    with pytest.raises(ValueError, match="bang"):
        call_sync(env, cluster.grain_ref(Doomed, "y"), "ask", "boom")
    # Nobody waiting: a failed call is unhandled, unlike a tell.
    cluster.grain_ref(Doomed, "z").call("boom")
    with pytest.raises(SimulationError) as excinfo:
        env.run()
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_placement_is_deterministic():
    env1, cluster1 = make_cluster(seed=1)
    env2, cluster2 = make_cluster(seed=2)
    for key in ("a", "b", "c", "d"):
        silo1 = cluster1.placement.place("Counter", key)
        silo2 = cluster2.placement.place("Counter", key)
        assert silo1.name == silo2.name


def test_placement_spreads_keys_across_silos():
    env, cluster = make_cluster(silos=4)
    names = {cluster.placement.place("Counter", f"k{i}").name
             for i in range(200)}
    assert len(names) == 4


def test_consistent_hash_remove_silo_moves_few_keys():
    placement = ConsistentHashPlacement()

    class FakeSilo:
        def __init__(self, name):
            self.name = name

    silos = [FakeSilo(f"s{i}") for i in range(4)]
    for silo in silos:
        placement.add_silo(silo)
    before = {f"k{i}": placement.place("T", f"k{i}").name
              for i in range(400)}
    placement.remove_silo(silos[0])
    moved = sum(
        1 for key, name in before.items()
        if name != "s0" and placement.place("T", key.split(":")[-1]
                                            if ":" in key else key).name
        != name)
    # Keys not on the removed silo must not move.
    assert moved == 0


def test_utilisation_reporting():
    env, cluster = make_cluster(silos=2)
    usage = cluster.utilisation()
    assert set(usage) == {"silo-0", "silo-1"}
    assert all(value == 0.0 for value in usage.values())


@pytest.mark.parametrize("field, value", [
    ("drop_probability", -0.1),
    ("drop_probability", 1.1),
    ("silos", 0),
    ("cores_per_silo", 0),
    ("activation_limit", 0),
])
def test_cluster_config_rejects_out_of_range_values(field, value):
    # The cluster's config is the app's AppConfig: a bad value fails
    # before any silo is built.
    with pytest.raises(ValueError, match=field):
        make_cluster(**{field: value})


def test_cluster_config_accepts_defaults_boundaries_and_the_catalogue():
    """The cluster takes its shape from the app's own config: defaults,
    boundaries (one silo and core, a certain drop, a one-grain budget)
    and every catalogue scenario's deployment."""
    from repro.core.scenarios import SCENARIOS

    configs = [AppConfig(), AppConfig(silos=1, cores_per_silo=1,
                                      drop_probability=1.0,
                                      activation_limit=1)]
    configs += [AppConfig(silos=scenario.effective_silos,
                          cores_per_silo=scenario.effective_cores,
                          drop_probability=scenario.drop_probability,
                          activation_limit=scenario.activation_limit)
                for scenario in SCENARIOS.values()]
    for config in configs:
        cluster = Cluster(Environment(), config)
        assert cluster.config is config
        assert [silo.cores for silo in cluster.silos] == \
            [config.cores_per_silo] * config.silos


def test_two_clusters_in_one_process_build_equal_rings():
    # Ring points are memoised per (silo name, virtual nodes): the
    # second cluster reuses the first one's digests.
    _, first = make_cluster(silos=4)
    _, second = make_cluster(seed=2, silos=4)
    assert first.placement._hashes == second.placement._hashes
    assert ([silo.name for _, silo in first.placement._ring]
            == [silo.name for _, silo in second.placement._ring])
    # Equal to a ring built without the memo.
    from repro.actors.placement import _hash
    assert first.placement._hashes == sorted(
        _hash(f"silo-{silo}#{node}")
        for silo in range(4) for node in range(64))

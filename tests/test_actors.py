"""Unit tests for the virtual-actor runtime."""

import pytest

from repro.actors import (
    Cluster,
    ClusterConfig,
    ConsistentHashPlacement,
    Grain,
    GrainCallError,
    MemoryGrainStorage,
)
from repro.actors.errors import MessageDropped, UnknownGrainType
from repro.runtime import Environment


class Counter(Grain):
    """Minimal stateful grain used across tests."""

    cpu_cost = 0.0001

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
        ref = self.grain_ref(Counter, target_key)
        result = yield self.call(ref, "increment", by)
        return result


def make_cluster(seed=1, **config_kwargs):
    env = Environment(seed=seed)
    cluster = Cluster(env, ClusterConfig(**config_kwargs))
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
    env, cluster = make_cluster(silos=1, cores_per_silo=1)

    class Heavy(Grain):
        cpu_cost = 0.5

        def work(self):
            return "done"
            yield  # pragma: no cover

    ref = cluster.grain_ref(Heavy, "h")
    call_sync(env, ref, "work")
    assert env.now >= 0.5


def test_single_core_silo_queues_work():
    env, cluster = make_cluster(silos=1, cores_per_silo=1)

    class Busy(Grain):
        cpu_cost = 0.1

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


def test_grain_storage_roundtrip():
    class Durable(Grain):
        storage_name = "default"

        def set(self, value):
            self.state["value"] = value
            yield from self.write_state()
            return True

        def get(self):
            return self.state.get("value")
            yield  # pragma: no cover

    env, cluster = make_cluster()
    ref = cluster.grain_ref(Durable, "d1")
    call_sync(env, ref, "set", 42)
    # Deactivate, then reactivate: state must be reloaded from storage.
    silo = cluster.silo_for(ref)
    assert silo.deactivate("Durable", "d1")
    assert call_sync(env, ref, "get") == 42


def test_clear_state_removes_persisted_state():
    class Durable(Grain):
        storage_name = "default"

        def set(self, value):
            self.state["value"] = value
            yield from self.write_state()

        def wipe(self):
            yield from self.clear_state()

        def get(self):
            return self.state.get("value")
            yield  # pragma: no cover

    env, cluster = make_cluster()
    ref = cluster.grain_ref(Durable, "d1")
    call_sync(env, ref, "set", 1)
    call_sync(env, ref, "wipe")
    silo = cluster.silo_for(ref)
    silo.deactivate("Durable", "d1")
    assert call_sync(env, ref, "get") is None


def test_on_activate_runs_before_first_message():
    class Warm(Grain):
        def __init__(self):
            super().__init__()
            self.activated_at = None

        def on_activate(self):
            self.activated_at = self.env.now
            yield self.env.timeout(0.005)

        def probe(self):
            return self.activated_at
            yield  # pragma: no cover

    env, cluster = make_cluster()
    ref = cluster.grain_ref(Warm, "w")
    assert call_sync(env, ref, "probe") is not None


def test_string_grain_ref_requires_registration():
    env, cluster = make_cluster()
    with pytest.raises(UnknownGrainType):
        cluster.grain_ref("Counter", "x")
    cluster.register_grain(Counter)
    ref = cluster.grain_ref("Counter", "x")
    assert call_sync(env, ref, "increment") == 1


def test_grain_ref_equality_and_hash():
    env, cluster = make_cluster()
    a1 = cluster.grain_ref(Counter, "a")
    a2 = cluster.grain_ref(Counter, "a")
    b = cluster.grain_ref(Counter, "b")
    assert a1 == a2
    assert a1 != b
    assert len({a1, a2, b}) == 2


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


def test_placement_is_deterministic():
    env1, cluster1 = make_cluster(seed=1)
    env2, cluster2 = make_cluster(seed=2)
    for key in ("a", "b", "c", "d"):
        silo1 = cluster1.silo_for(cluster1.grain_ref(Counter, key))
        silo2 = cluster2.silo_for(cluster2.grain_ref(Counter, key))
        assert silo1.name == silo2.name


def test_placement_spreads_keys_across_silos():
    env, cluster = make_cluster(silos=4)
    names = {cluster.silo_for(cluster.grain_ref(Counter, f"k{i}")).name
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


def test_storage_peek_and_keys():
    env = Environment()
    storage = MemoryGrainStorage(env, "s")

    def scenario():
        yield from storage.write("T", "k", {"a": 1})

    env.process(scenario())
    env.run()
    assert storage.peek("T", "k") == {"a": 1}
    assert storage.keys() == [("T", "k")]
    assert storage.peek("T", "missing") is None


def test_storage_deep_copies_state():
    env = Environment()
    storage = MemoryGrainStorage(env, "s")
    original = {"items": [1, 2]}

    def scenario():
        yield from storage.write("T", "k", original)
        loaded = yield from storage.read("T", "k")
        return loaded

    process = env.process(scenario())
    env.run()
    loaded = process.value
    loaded["items"].append(3)
    assert storage.peek("T", "k") == {"items": [1, 2]}


def test_utilisation_reporting():
    env, cluster = make_cluster(silos=2)
    usage = cluster.utilisation()
    assert set(usage) == {"silo-0", "silo-1"}
    assert all(value == 0.0 for value in usage.values())


@pytest.mark.parametrize("field, value", [
    ("local_latency", -0.001),
    ("remote_latency", -0.001),
    ("remote_jitter", -0.001),
    ("failure_detection_delay", -1.0),
    ("remote_latency", float("nan")),
    ("handoff_poll", 0.0),
    ("working_set_sweep", 0.0),
    ("working_set_sweep", -0.05),
    ("drop_probability", -0.1),
    ("drop_probability", 1.1),
    ("silos", 0),
    ("cores_per_silo", 0),
    ("max_delivery_attempts", 0),
    ("activation_limit", 0),
])
def test_cluster_config_rejects_out_of_range_values(field, value):
    # A negative latency used to construct, heap-push deliveries into
    # the past and let ``env.now`` run backwards.
    with pytest.raises(ValueError, match=field):
        ClusterConfig(**{field: value})


def test_cluster_config_accepts_defaults_boundaries_and_the_catalogue():
    from repro.core.scenarios import SCENARIOS

    ClusterConfig()
    # Zero is a legal latency, 0 and 1 legal drop rates, None no limit.
    ClusterConfig(local_latency=0.0, remote_latency=0.0, remote_jitter=0.0,
                  failure_detection_delay=0.0, drop_probability=1.0,
                  silos=1, cores_per_silo=1, max_delivery_attempts=1,
                  activation_limit=1)
    for scenario in SCENARIOS.values():
        config = ClusterConfig(
            silos=scenario.effective_silos,
            cores_per_silo=scenario.effective_cores,
            drop_probability=scenario.drop_probability,
            activation_limit=scenario.activation_limit)
        assert config.silos >= 1, scenario.name


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


class TestTimers:
    def test_timer_ticks_through_mailbox(self):
        class Ticker(Grain):
            def __init__(self):
                super().__init__()
                self.ticks = []

            def on_activate(self):
                self.register_timer(0.1, "tick")

            def tick(self):
                self.ticks.append(self.env.now)
                return None
                yield  # pragma: no cover

            def count(self):
                return len(self.ticks)
                yield  # pragma: no cover

        env, cluster = make_cluster()
        ref = cluster.grain_ref(Ticker, "t")
        call_sync(env, ref, "count")  # activate
        env.run(until=1.05)
        promise = ref.call("count")
        assert env.run(until=promise) == 10

    def test_timer_stops_after_deactivation(self):
        class Ticker(Grain):
            def __init__(self):
                super().__init__()
                self.ticks = 0

            def on_activate(self):
                self.register_timer(0.1, "tick")

            def tick(self):
                self.ticks += 1
                return None
                yield  # pragma: no cover

        env, cluster = make_cluster()
        ref = cluster.grain_ref(Ticker, "t")
        grain = cluster.grain_instance(ref)
        env.run(until=0.35)
        cluster.silo_for(ref).deactivate("Ticker", "t")
        ticks_at_deactivation = grain.ticks
        env.run(until=2.0)
        assert grain.ticks == ticks_at_deactivation

    def test_invalid_timer_interval_rejected(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(Counter, "c")
        grain = cluster.grain_instance(ref)
        with pytest.raises(ValueError):
            grain.register_timer(0.0, "increment")


class TestIdleCollection:
    class Durable(Grain):
        storage_name = "default"

        def bump(self):
            self.state["n"] = self.state.get("n", 0) + 1
            return self.state["n"]
            yield  # pragma: no cover

    def test_idle_activation_collected_and_state_persisted(self):
        env, cluster = make_cluster()
        cluster.enable_idle_collection(max_age=0.5, sweep_interval=0.25)
        ref = cluster.grain_ref(self.Durable, "d")
        assert call_sync(env, ref, "bump") == 1
        env.run(until=env.now + 2.0)
        assert cluster.total_activations == 0
        assert cluster.collections == 1
        # Transparent re-activation restores the persisted state.
        assert call_sync(env, ref, "bump") == 2

    def test_busy_activation_not_collected(self):
        class Chatty(Grain):
            def ping(self):
                return self.env.now
                yield  # pragma: no cover

        env, cluster = make_cluster()
        cluster.enable_idle_collection(max_age=0.5, sweep_interval=0.25)
        ref = cluster.grain_ref(Chatty, "c")

        def keep_busy():
            for _ in range(20):
                promise = ref.call("ping")
                yield promise
                yield env.timeout(0.1)

        process = env.process(keep_busy())
        env.run(until=process)
        assert cluster.total_activations == 1

    def test_invalid_collection_parameters_rejected(self):
        env, cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.enable_idle_collection(max_age=0.0)
        with pytest.raises(ValueError):
            cluster.enable_idle_collection(max_age=1.0, sweep_interval=0)

    def test_message_during_deactivation_aborts_and_hook_runs_once(self):
        """A call arriving while on_deactivate/persist yields must not
        be lost: the deactivation aborts, the message is served, and a
        later sweep deactivates without re-running the hook."""
        class SlowFarewell(Grain):
            storage_name = "default"
            hook_runs = 0

            def on_deactivate(self):
                type(self).hook_runs += 1
                yield self.env.timeout(0.02)

            def bump(self):
                self.state["n"] = self.state.get("n", 0) + 1
                return self.state["n"]
                yield  # pragma: no cover

        env, cluster = make_cluster()
        cluster.enable_idle_collection(max_age=0.5, sweep_interval=0.25)
        ref = cluster.grain_ref(SlowFarewell, "f")
        assert call_sync(env, ref, "bump") == 1
        # The first collecting sweep fires at t=0.75 and spends 20ms in
        # the hook; land a call inside that window.
        def intruder():
            yield env.timeout(0.76)
            result = yield ref.call("bump")
            return result

        process = env.process(intruder())
        assert env.run(until=process) == 2  # served, not lost
        env.run(until=2.0)  # a later sweep completes the deactivation
        assert cluster.total_activations == 0
        assert cluster.collections == 1
        assert SlowFarewell.hook_runs == 1
        assert cluster.storage("default").peek("SlowFarewell", "f") == \
            {"n": 2}  # the slipped-in bump made it into the persist

    def test_collection_roundtrip_through_storage(self):
        """The virtual-actor lifecycle end to end: state written at
        idle collection is exactly what storage holds, and the next
        call reads it back transparently (fresh activation, same
        state)."""
        env, cluster = make_cluster()
        cluster.enable_idle_collection(max_age=0.5, sweep_interval=0.25)
        ref = cluster.grain_ref(self.Durable, "d")
        for expected in (1, 2, 3):
            assert call_sync(env, ref, "bump") == expected
        first_grain = cluster.grain_instance(ref)
        storage = cluster.storage("default")
        writes_before = storage.writes
        env.run(until=env.now + 2.0)  # idle long enough to collect
        assert cluster.collections == 1
        # Collection persisted the grain's full state dict.
        assert storage.peek("Durable", "d") == {"n": 3}
        assert storage.writes == writes_before + 1
        # The next call re-activates: a *new* grain instance whose
        # state came back from storage via a read.
        reads_before = storage.reads
        assert call_sync(env, ref, "bump") == 4
        assert storage.reads == reads_before + 1
        assert cluster.grain_instance(ref) is not first_grain

"""Dynamic cluster membership: crash, drain, join and migration."""

import types

import pytest

from repro.actors import (
    Cluster,
    ClusterConfig,
    Grain,
    NoLiveSilos,
    SiloState,
    SiloUnavailable,
)
from repro.control import (
    AddSilo,
    ControlPlane,
    CrashSilo,
    FaultEvent,
    FaultSchedule,
)
from repro.runtime import Environment


class VolatileCounter(Grain):
    """In-memory counter: state dies with the activation."""

    def __init__(self):
        super().__init__()
        self.value = 0

    def bump(self):
        self.value += 1
        return self.value
        yield  # pragma: no cover - generator marker

    def get(self):
        return self.value
        yield  # pragma: no cover - generator marker


def make_cluster(seed=1, detection=0.0, **config_kwargs):
    env = Environment(seed=seed)
    cluster = Cluster(env, ClusterConfig(
        failure_detection_delay=detection, **config_kwargs))
    return env, cluster


def call_sync(env, ref, method, *args, **kwargs):
    promise = ref.call(method, *args, **kwargs)
    return env.run(until=promise)


def owner(cluster, ref):
    """The ring owner of ``ref`` (where a *new* activation goes)."""
    return cluster.placement.place(ref.type_name, ref.key)


def keys_on(cluster, grain_type, silo, keys):
    return [key for key in keys
            if owner(cluster, cluster.grain_ref(grain_type, key)) is silo]


KEYS = [f"k{i}" for i in range(24)]


# ---------------------------------------------------------------------------
# crash
# ---------------------------------------------------------------------------
class TestCrash:
    def test_volatile_state_lost_and_counted(self):
        env, cluster = make_cluster()
        refs = {key: cluster.grain_ref(VolatileCounter, key)
                for key in KEYS}
        for key in KEYS:
            assert call_sync(env, refs[key], "bump") == 1
        victim = cluster.silos[0]
        victim_keys = keys_on(cluster, VolatileCounter, victim, KEYS)
        assert victim_keys
        cluster.crash_silo(victim)
        env.run(until=env.now + 0.1)
        assert cluster.membership.state_loss_events == len(victim_keys)
        for key in victim_keys:  # reactivated empty on a new owner
            assert call_sync(env, refs[key], "get") == 0
        survivors = [key for key in KEYS if key not in victim_keys]
        for key in survivors[:3]:  # untouched elsewhere
            assert call_sync(env, refs[key], "get") == 1

    def test_calls_fail_during_detection_window_then_recover(self):
        env, cluster = make_cluster(detection=0.5)
        ref = None
        victim = cluster.silos[2]
        for key in KEYS:  # find a key owned by the victim
            candidate = cluster.grain_ref(VolatileCounter, key)
            if owner(cluster, candidate) is victim:
                ref = candidate
                break
        assert ref is not None
        call_sync(env, ref, "bump")
        cluster.crash_silo(victim)
        # Until detection completes the ring still points at the dead
        # silo: calls exhaust their delivery attempts and fail.
        with pytest.raises(SiloUnavailable):
            call_sync(env, ref, "bump")
        assert cluster.membership.unavailable_failures > 0
        env.run(until=env.now + 1.0)  # eviction happened
        assert owner(cluster, ref) is not victim
        assert call_sync(env, ref, "bump") == 1  # state died with victim

    def test_queued_messages_replaced_on_eviction(self):
        class Slow(Grain):
            cpu_cost = 0.0001

            def work(self, duration):
                yield self.env.timeout(duration)
                return self.env.now

        env, cluster = make_cluster()
        victim = cluster.silos[0]
        key = keys_on(cluster, Slow, victim,
                      [f"s{i}" for i in range(40)])[0]
        ref = cluster.grain_ref(Slow, key)
        first = ref.call("work", 0.2)   # executes across the crash
        env.run(until=0.05)             # ... it is mid-execution now
        queued = ref.call("work", 0.05)  # waits in the mailbox

        def saboteur():
            yield env.timeout(0.05)  # crash at t=0.1
            cluster.crash_silo(victim)

        env.process(saboteur())
        with pytest.raises(SiloUnavailable):
            env.run(until=first)  # mid-execution: fails at crash time
        # The queued message never started: it is re-placed and
        # completes on the new owner.
        assert env.run(until=queued) > 0.1
        assert cluster.membership.reroutes >= 1

    def test_crash_twice_rejected(self):
        env, cluster = make_cluster()
        cluster.crash_silo("silo-0")
        with pytest.raises(SiloUnavailable):
            cluster.crash_silo("silo-0")

    def test_unknown_silo_name(self):
        env, cluster = make_cluster()
        with pytest.raises(KeyError):
            cluster.crash_silo("silo-99")


# ---------------------------------------------------------------------------
# drain
# ---------------------------------------------------------------------------
class TestDrain:
    def test_drain_live_migrates_volatile_state(self):
        env, cluster = make_cluster()
        refs = {key: cluster.grain_ref(VolatileCounter, key)
                for key in KEYS}
        for key in KEYS:
            call_sync(env, refs[key], "bump")
        victim = cluster.silos[2]
        victim_keys = keys_on(cluster, VolatileCounter, victim, KEYS)
        assert victim_keys
        done = cluster.drain_silo(victim)
        env.run(until=done)
        assert cluster.membership.state_loss_events == 0
        assert cluster.membership.volatile_handoffs >= len(victim_keys)
        for key in victim_keys:  # state travelled with the grain
            assert call_sync(env, refs[key], "get") == 1
            assert owner(cluster, refs[key]) is not victim

    def test_drain_finishes_queued_work_first(self):
        class Slow(Grain):
            def work(self):
                yield self.env.timeout(0.05)
                return "done"

        env, cluster = make_cluster()
        victim = cluster.silos[0]
        key = keys_on(cluster, Slow, victim,
                      [f"s{i}" for i in range(40)])[0]
        ref = cluster.grain_ref(Slow, key)
        promises = [ref.call("work") for _ in range(3)]
        drained = cluster.drain_silo(victim)
        for promise in promises:  # queued work completes, not fails
            assert env.run(until=promise) == "done"
        env.run(until=drained)
        assert victim.state == SiloState.STOPPED

    def test_drain_already_stopped_rejected(self):
        env, cluster = make_cluster()
        done = cluster.drain_silo("silo-0")
        env.run(until=done)
        with pytest.raises(SiloUnavailable):
            cluster.drain_silo("silo-0")


# ---------------------------------------------------------------------------
# join / scale-out
# ---------------------------------------------------------------------------
class TestJoin:
    def test_join_bumps_epoch_and_receives_placements(self):
        env, cluster = make_cluster(silos=2)
        epoch_before = cluster.placement.epoch
        new = cluster.add_silo()
        assert cluster.placement.epoch == epoch_before + 1
        assert new.name == "silo-2"
        env.run(until=env.now + 0.2)
        fresh = [f"fresh{i}" for i in range(200)]
        owners = {owner(cluster, cluster.grain_ref(VolatileCounter, key)).name
                  for key in fresh}
        assert new.name in owners

    def test_join_rejects_a_name_already_in_use(self):
        env, cluster = make_cluster(silos=2)
        epoch = cluster.placement.epoch
        with pytest.raises(ValueError, match="already in use"):
            cluster.add_silo("silo-0")
        assert [silo.name for silo in cluster.silos] == \
            ["silo-0", "silo-1"]
        assert cluster.placement.epoch == epoch
        assert cluster.membership.joins == 0
        # A stopped silo still owns its name (and its ring points).
        cluster.crash_silo("silo-1")
        with pytest.raises(ValueError):
            cluster.add_silo("silo-1")
        assert cluster.add_silo("blue").name == "blue"

    def test_join_migrates_reassigned_grains_with_state(self):
        env, cluster = make_cluster(silos=2)
        refs = {key: cluster.grain_ref(VolatileCounter, key)
                for key in KEYS}
        for key in KEYS:
            call_sync(env, refs[key], "bump")
        new = cluster.add_silo()
        moved_keys = keys_on(cluster, VolatileCounter, new, KEYS)
        assert moved_keys, "the new silo must take over some keys"
        env.run(until=env.now + 0.5)  # let the rebalance finish
        assert cluster.membership.migrations >= len(moved_keys)
        for key in moved_keys:
            assert (new.name, ) == (cluster.directory.lookup(
                "VolatileCounter", key).silo.name, )
            assert call_sync(env, refs[key], "get") == 1

    def test_crash_then_join_restores_capacity(self):
        env, cluster = make_cluster()
        cluster.crash_silo("silo-3")
        assert len(cluster.live_silos) == 3
        cluster.add_silo()
        assert len(cluster.live_silos) == 4
        ref = cluster.grain_ref(VolatileCounter, "x")
        assert call_sync(env, ref, "bump") == 1


# ---------------------------------------------------------------------------
# empty ring
# ---------------------------------------------------------------------------
class TestNoLiveSilos:
    def test_dispatch_returns_failed_promise_not_exception(self):
        env, cluster = make_cluster(silos=1)
        cluster.crash_silo("silo-0")
        ref = cluster.grain_ref(VolatileCounter, "x")
        promise = ref.call("bump")  # must not raise here
        with pytest.raises(NoLiveSilos):
            env.run(until=promise)
        assert cluster.membership.unavailable_failures >= 1

    def test_place_raises_no_live_silos(self):
        env, cluster = make_cluster(silos=1)
        cluster.crash_silo("silo-0")
        with pytest.raises(NoLiveSilos):
            owner(cluster, cluster.grain_ref(VolatileCounter, "x"))

    def test_tell_into_empty_ring_is_swallowed(self):
        env, cluster = make_cluster(silos=1)
        cluster.crash_silo("silo-0")
        cluster.grain_ref(VolatileCounter, "x").tell("bump")
        env.run()  # must not raise


# ---------------------------------------------------------------------------
# grain directory
# ---------------------------------------------------------------------------
class TestDirectory:
    def test_lookup_follows_crash_and_reactivation(self):
        env, cluster = make_cluster()
        directory = cluster.directory
        assert directory.lookup("VolatileCounter", "x") is None
        ref = cluster.grain_ref(VolatileCounter, "x")
        call_sync(env, ref, "bump")
        home = owner(cluster, ref)
        assert directory.lookup("VolatileCounter", "x").silo is home
        cluster.crash_silo(home)
        assert directory.lookup("VolatileCounter", "x") is None
        call_sync(env, ref, "bump")  # re-activates on the new owner
        entry = directory.lookup("VolatileCounter", "x")
        assert entry.silo is owner(cluster, ref) is not home

    def test_lookup_stays_on_old_owner_until_rebalanced(self):
        env, cluster = make_cluster(silos=2)
        refs = {key: cluster.grain_ref(VolatileCounter, key)
                for key in KEYS}
        for key in KEYS:
            call_sync(env, refs[key], "bump")
        new = cluster.add_silo()
        moved = keys_on(cluster, VolatileCounter, new, KEYS)
        assert moved
        # Before the rebalance completes the old activation is stale:
        # the ring points at the new owner, the directory at the old.
        assert all(cluster.directory.lookup("VolatileCounter", key).silo
                   is not new for key in moved)
        env.run(until=env.now + 0.5)
        assert all(cluster.directory.lookup("VolatileCounter", key).silo
                   is new for key in moved)

    def test_deactivation_unregisters(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(VolatileCounter, "x")
        call_sync(env, ref, "bump")
        owner(cluster, ref).deactivate("VolatileCounter", "x")
        assert cluster.directory.lookup("VolatileCounter", "x") is None


# ---------------------------------------------------------------------------
# fault schedules
# ---------------------------------------------------------------------------
def fire(env, schedule, host, until=1.0):
    """Install ``schedule`` on a plane over ``host``; run; return the
    plane's audited log."""
    plane = ControlPlane(env, types.SimpleNamespace(scaling_host=host))
    schedule.install(env, plane)
    env.run(until=env.now + until)
    return plane.action_log


class TestFaultSchedule:
    def test_events_fire_in_order_at_their_times(self):
        env = Environment(seed=1)
        hits = []

        class Host:
            def crash_silo(self, name):
                hits.append((env.now, "crash", name))
                return name

            def add_silo(self):
                hits.append((env.now, "join", None))

        log = fire(env, FaultSchedule([
            FaultEvent(0.5, AddSilo()),
            FaultEvent(0.2, CrashSilo("s0")),
        ]), Host())
        assert hits == [(0.2, "crash", "s0"), (0.5, "join", None)]
        assert [(entry["time"], entry["action"], entry["source"])
                for entry in log] == [(0.2, "crash_silo", "fault"),
                                      (0.5, "add_silo", "fault")]
        assert all(entry["applied"] for entry in log)

    def test_unsupported_actions_logged_not_raised(self):
        schedule = FaultSchedule([FaultEvent(0.1, CrashSilo("s0"))])
        # No host at all, and a host without the verb.
        for host in (None, object()):
            log = fire(Environment(seed=1), schedule, host)
            assert len(log) == 1
            assert not log[0]["applied"]
            assert log[0]["detail"] == \
                "target does not support this action"

    def test_action_errors_logged_not_raised(self):
        class Exploding:
            def crash_silo(self, name):
                raise KeyError(name)

        log = fire(Environment(seed=1), FaultSchedule([
            FaultEvent(0.1, CrashSilo("s9"))]), Exploding())
        assert not log[0]["applied"]
        assert "KeyError" in log[0]["detail"]

    def test_time_scaled(self):
        schedule = FaultSchedule([FaultEvent(2.0, AddSilo())])
        assert schedule.time_scaled(0.5) == \
            FaultSchedule([FaultEvent(1.0, AddSilo())])
        assert schedule.events[0].at == 2.0  # the original is a value
        with pytest.raises(ValueError):
            schedule.time_scaled(0.0)

    def test_invalid_events_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, CrashSilo("s0"))
        with pytest.raises(TypeError):
            FaultEvent(1.0, "crash_silo")


# ---------------------------------------------------------------------------
# end-to-end: fault schedule against a live cluster
# ---------------------------------------------------------------------------
class TestFaultScheduleOnCluster:
    def test_crash_schedule_drives_cluster(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(VolatileCounter, "x")
        call_sync(env, ref, "bump")
        log = fire(env, FaultSchedule([
            FaultEvent(0.3, CrashSilo("silo-0")),
            FaultEvent(0.6, AddSilo()),
        ]), cluster)
        assert cluster.membership.crashes == 1
        assert cluster.membership.joins == 1
        assert [entry["applied"] for entry in log] == [True, True]
        assert len(cluster.live_silos) == 4

"""Unit tests for the replicated key-value store."""

import pytest

from repro.kvstore import CausalSession, KVStore, ReplicatedKV
from repro.kvstore.store import KV_READ_LATENCY, KV_WRITE_LATENCY
from repro.runtime import Environment


def run_proc(env, generator):
    process = env.process(generator)
    env.run()
    if not process.ok:
        raise process.value
    return process.value


class TestKVStore:
    def test_put_get_roundtrip(self):
        env = Environment()
        store = KVStore(env, "s")

        def scenario():
            yield from store.put("k", "v")
            entry = yield from store.get("k")
            return entry.value

        assert run_proc(env, scenario()) == "v"

    def test_get_missing_returns_none(self):
        env = Environment()
        store = KVStore(env, "s")

        def scenario():
            entry = yield from store.get("nope")
            return entry

        assert run_proc(env, scenario()) is None

    def test_operations_charge_latency(self):
        env = Environment()
        store = KVStore(env, "s")

        def scenario():
            yield from store.put("k", 1)
            yield from store.get("k")
            return env.now

        assert run_proc(env, scenario()) == pytest.approx(
            KV_WRITE_LATENCY + KV_READ_LATENCY)

    def test_peek_does_not_count_as_read(self):
        env = Environment()
        store = KVStore(env, "s")
        store.put_now("k", 9)
        assert store.peek("k").value == 9
        assert store.reads == 0


class TestReplicatedKV:
    def test_primary_read_sees_write_immediately(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=1, replication_lag=1.0)

        def scenario():
            yield from kv.put("k", "fresh")
            entry = yield from kv.get_primary("k")
            return entry.value

        assert run_proc(env, scenario()) == "fresh"

    def test_eventual_read_can_be_stale(self):
        """A replica read before the replication lag has passed misses
        the primary's write."""
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=1, replication_lag=10.0)

        def scenario():
            yield from kv.put("k", "v1")
            entry = yield from kv.replicas[0].store.get("k")
            return entry

        assert run_proc(env, scenario()) is None
        assert kv.primary.peek("k").value == "v1"

    def test_eventual_read_fresh_after_lag(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=1, replication_lag=0.5)

        def scenario():
            yield from kv.put("k", "v1")
            yield env.timeout(1.0)
            entry = yield from kv.replicas[0].store.get("k")
            return entry.value

        assert run_proc(env, scenario()) == "v1"

    def test_causal_read_blocks_until_replica_catches_up(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=1, replication_lag=2.0)
        session = CausalSession("client")

        def scenario():
            yield from kv.put("k", "v1", session=session)
            entry = yield from kv.get_causal("k", session)
            return env.now, entry.value

        when, value = run_proc(env, scenario())
        assert value == "v1"
        assert when >= 2.0  # had to wait for replication
        assert kv.causal_waits == 1

    def test_causal_read_without_prior_write_does_not_block(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=2, replication_lag=5.0)
        session = CausalSession("client")

        def scenario():
            entry = yield from kv.get_causal("missing", session)
            return env.now, entry

        when, entry = run_proc(env, scenario())
        assert entry is None
        assert when < 5.0

    def test_session_frontier_advances_on_write_and_read(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=1, replication_lag=0.01)
        session = CausalSession("client")

        def scenario():
            yield from kv.put("a", 1, session=session)
            yield from kv.put("b", 2, session=session)
            yield env.timeout(1.0)
            yield from kv.get_causal("a", session)
            return session.frontier

        assert run_proc(env, scenario()) == 2

    def test_versions_are_the_primary_write_sequence(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=2, replication_lag=0.5)

        def scenario():
            first = yield from kv.put("a", 1)
            second = yield from kv.put("a", 2)
            return first.version, second.version

        assert run_proc(env, scenario()) == (1, 2)
        assert [replica.applied for replica in kv.replicas] == [2, 2]
        assert kv.replicas[0].store.peek("a").version == 2

    def test_monotonic_reads_within_session(self):
        """A session never observes an older version after a newer one."""
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=3, replication_lag=0.5)
        session = CausalSession("client")
        observed = []

        def writer():
            for i in range(10):
                yield from kv.put("k", i)
                yield env.timeout(0.2)

        def reader():
            yield env.timeout(0.6)
            for _ in range(20):
                entry = yield from kv.get_causal("k", session)
                if entry is not None:
                    observed.append(entry.value)
                yield env.timeout(0.1)

        env.process(writer())
        env.process(reader())
        env.run()
        assert observed == sorted(observed)

    def test_no_replicas_rejects_replica_reads(self):
        env = Environment()
        kv = ReplicatedKV(env, "kv", replicas=0)

        def scenario():
            yield from kv.get_causal("k", CausalSession("client"))

        from repro.runtime import SimulationError
        process = env.process(scenario())
        with pytest.raises(SimulationError):
            env.run()
        assert not process.ok
        assert isinstance(process.value, RuntimeError)

    def test_negative_replica_count_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            ReplicatedKV(env, "kv", replicas=-1)

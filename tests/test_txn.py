"""Unit tests for the distributed transaction layer."""

import pytest

from repro.actors import Cluster, ClusterConfig
from repro.runtime import Environment
from repro.txn import (
    LockManager,
    LockMode,
    TransactionAborted,
    TransactionContext,
    TransactionRunner,
    TransactionStatus,
    TransactionalGrain,
    TxnConfig,
)


class Account(TransactionalGrain):
    """Transactional bank account used throughout these tests."""

    def deposit(self, amount):
        state = yield from self.txn_read()
        state = {**state, "balance": state.get("balance", 0) + amount}
        yield from self.txn_write(state)
        return state["balance"]

    def withdraw(self, amount):
        state = yield from self.txn_read()
        balance = state.get("balance", 0)
        if balance < amount:
            raise TransactionAborted(
                f"insufficient funds on {self.key}", reason="application")
        state = {**state, "balance": balance - amount}
        yield from self.txn_write(state)
        return state["balance"]

    def balance(self):
        state = yield from self.txn_read()
        return state.get("balance", 0)


class Bank(TransactionalGrain):
    """Coordinator-side grain that moves money between accounts."""

    def transfer(self, source, target, amount):
        src = self.grain_ref(Account, source)
        dst = self.grain_ref(Account, target)
        yield self.call(src, "withdraw", amount)
        yield self.call(dst, "deposit", amount)
        return amount


def make_runner(seed=1, **txn_kwargs):
    env = Environment(seed=seed)
    cluster = Cluster(env, ClusterConfig())
    runner = TransactionRunner(cluster, TxnConfig(**txn_kwargs))
    return env, cluster, runner


def run_txn(env, cluster, runner, grain_type, key, method, *args):
    ref = cluster.grain_ref(grain_type, key)
    process = env.process(runner.run(
        lambda ctx: ref.call(method, *args, txn=ctx)))
    return env.run(until=process)


class TestLockManager:
    def make(self):
        env = Environment()
        return env, LockManager(env, "l")

    def ctx(self, env, at=None):
        return TransactionContext(at if at is not None else env.now)

    def grant(self, env, lock, ctx, mode):
        process = env.process(lock.acquire(ctx, mode))
        env.run()
        if not process.ok:
            raise process.value
        return process

    def test_shared_locks_compatible(self):
        env, lock = self.make()
        a, b = self.ctx(env), self.ctx(env)
        self.grant(env, lock, a, LockMode.SHARED)
        self.grant(env, lock, b, LockMode.SHARED)
        assert lock.held_by(a) is LockMode.SHARED
        assert lock.held_by(b) is LockMode.SHARED

    def test_exclusive_conflicts_with_shared(self):
        env, lock = self.make()
        older = TransactionContext(0.0)
        younger = TransactionContext(1.0)
        self.grant(env, lock, older, LockMode.SHARED)
        # Younger requester conflicting with older holder dies.
        process = env.process(lock.acquire(younger, LockMode.EXCLUSIVE))
        with pytest.raises(TransactionAborted) as excinfo:
            env.run(until=process)
        assert excinfo.value.reason == "wait-die"
        assert lock.deaths == 1

    def test_older_requester_waits_for_younger_holder(self):
        env, lock = self.make()
        older = TransactionContext(0.0)
        younger = TransactionContext(1.0)
        self.grant(env, lock, younger, LockMode.EXCLUSIVE)
        granted = []

        def acquire_then_record():
            yield from lock.acquire(older, LockMode.EXCLUSIVE)
            granted.append(env.now)

        def release_later():
            yield env.timeout(5.0)
            lock.release(younger)

        env.process(acquire_then_record())
        env.process(release_later())
        env.run()
        assert granted == [5.0]
        assert lock.waits == 1

    def test_reacquire_same_mode_is_noop(self):
        env, lock = self.make()
        ctx = self.ctx(env)
        self.grant(env, lock, ctx, LockMode.SHARED)
        self.grant(env, lock, ctx, LockMode.SHARED)
        assert len(lock.holders()) == 1

    def test_upgrade_sole_shared_holder(self):
        env, lock = self.make()
        ctx = self.ctx(env)
        self.grant(env, lock, ctx, LockMode.SHARED)
        self.grant(env, lock, ctx, LockMode.EXCLUSIVE)
        assert lock.held_by(ctx) is LockMode.EXCLUSIVE

    def test_exclusive_holder_keeps_lock_on_shared_request(self):
        env, lock = self.make()
        ctx = self.ctx(env)
        self.grant(env, lock, ctx, LockMode.EXCLUSIVE)
        self.grant(env, lock, ctx, LockMode.SHARED)
        assert lock.held_by(ctx) is LockMode.EXCLUSIVE

    def test_release_unknown_ctx_is_noop(self):
        env, lock = self.make()
        lock.release(self.ctx(env))  # must not raise

    def test_disabled_lock_always_grants(self):
        env, lock = self.make()
        older = TransactionContext(0.0, locking=False)
        younger = TransactionContext(1.0, locking=False)
        self.grant(env, lock, older, LockMode.EXCLUSIVE)
        self.grant(env, lock, younger, LockMode.EXCLUSIVE)
        # The ablation is per transaction: a locking one still conflicts.
        holder = self.ctx(env)
        self.grant(env, lock, holder, LockMode.EXCLUSIVE)
        process = env.process(
            lock.acquire(self.ctx(env), LockMode.EXCLUSIVE))
        with pytest.raises(TransactionAborted):
            env.run(until=process)


class TestTransactionRunner:
    def test_commit_applies_state(self):
        env, cluster, runner = make_runner()
        assert run_txn(env, cluster, runner, Account, "a", "deposit",
                       100) == 100
        assert run_txn(env, cluster, runner, Account, "a", "balance") == 100
        assert runner.stats.committed == 2

    def test_transfer_moves_money_atomically(self):
        env, cluster, runner = make_runner()
        run_txn(env, cluster, runner, Account, "a", "deposit", 100)
        run_txn(env, cluster, runner, Bank, "bank", "transfer",
                "a", "b", 30)
        assert run_txn(env, cluster, runner, Account, "a", "balance") == 70
        assert run_txn(env, cluster, runner, Account, "b", "balance") == 30

    def test_application_abort_rolls_back_everything(self):
        env, cluster, runner = make_runner(max_retries=0)
        run_txn(env, cluster, runner, Account, "a", "deposit", 10)
        # Transfer more than the balance: withdraw aborts AFTER deposit
        # order within the method; ensure nothing leaked.
        with pytest.raises(TransactionAborted):
            run_txn(env, cluster, runner, Bank, "bank", "transfer",
                    "a", "b", 999)
        assert run_txn(env, cluster, runner, Account, "a", "balance") == 10
        assert run_txn(env, cluster, runner, Account, "b", "balance") == 0

    def test_aborted_txn_releases_locks(self):
        env, cluster, runner = make_runner(max_retries=0)
        run_txn(env, cluster, runner, Account, "a", "deposit", 10)
        with pytest.raises(TransactionAborted):
            run_txn(env, cluster, runner, Account, "a", "withdraw", 999)
        # Lock must be free again: next transaction proceeds.
        assert run_txn(env, cluster, runner, Account, "a", "deposit",
                       5) == 15

    def test_concurrent_increments_are_serialised(self):
        env, cluster, runner = make_runner()
        ref = cluster.grain_ref(Account, "hot")
        processes = [
            env.process(runner.run(
                lambda ctx: ref.call("deposit", 1, txn=ctx)))
            for _ in range(25)]
        env.run()
        failed = [p for p in processes if not p.ok]
        assert not failed
        assert run_txn(env, cluster, runner, Account, "hot",
                       "balance") == 25

    def test_concurrent_transfers_conserve_money(self):
        env, cluster, runner = make_runner()
        for key in ("a", "b", "c"):
            run_txn(env, cluster, runner, Account, key, "deposit", 100)
        bank = cluster.grain_ref(Bank, "bank")
        pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
                 ("b", "a"), ("c", "b")] * 4
        processes = []
        for source, target in pairs:
            processes.append(env.process(runner.run(
                lambda ctx, s=source, t=target: bank.call(
                    "transfer", s, t, 1, txn=ctx))))
        env.run()
        committed = sum(1 for p in processes if p.ok)
        assert committed >= 1
        total = sum(
            run_txn(env, cluster, runner, Account, key, "balance")
            for key in ("a", "b", "c"))
        assert total == 300

    def test_retry_preserves_priority_and_eventually_commits(self):
        env, cluster, runner = make_runner(max_retries=10)
        ref = cluster.grain_ref(Account, "hot")
        processes = [
            env.process(runner.run(
                lambda ctx: ref.call("deposit", 1, txn=ctx)))
            for _ in range(10)]
        env.run()
        assert all(p.ok for p in processes)
        assert runner.stats.committed == 10

    def test_stats_track_aborts(self):
        env, cluster, runner = make_runner(max_retries=0)
        with pytest.raises(TransactionAborted):
            run_txn(env, cluster, runner, Account, "a", "withdraw", 1)
        assert runner.stats.aborted == 1
        assert runner.stats.started == 1

    def test_transaction_latency_includes_2pc_rounds(self):
        env, cluster, runner = make_runner()
        start = env.now
        run_txn(env, cluster, runner, Account, "a", "deposit", 1)
        elapsed = env.now - start
        config = runner.config
        # At minimum: grain call + prepare round-trip + participant log
        # force + coordinator log + commit hop.
        floor = (2 * config.control_latency
                 + Account.log_write_latency
                 + config.coordinator_log_latency)
        assert elapsed >= floor

    def test_ablation_without_locking_never_waits_or_dies(self):
        """``TxnConfig.enable_locking`` reaches the lock manager: the
        same hot-key burst that costs wait-die retries under locking
        runs straight through without it (and loses updates)."""
        outcomes = {}
        for locking in (True, False):
            env, cluster, runner = make_runner(enable_locking=locking)
            ref = cluster.grain_ref(Account, "hot")
            processes = [
                env.process(runner.run(
                    lambda ctx: ref.call("deposit", 1, txn=ctx)))
                for _ in range(10)]
            env.run()
            assert all(p.ok for p in processes)
            assert runner.stats.committed == 10
            balance = run_txn(env, cluster, runner, Account, "hot",
                              "balance")
            outcomes[locking] = (runner.stats.retries, balance)
        retries, balance = outcomes[True]
        assert retries > 0 and balance == 10
        retries, balance = outcomes[False]
        assert retries == 0 and balance < 10

    def test_ablation_without_2pc_still_commits(self):
        env, cluster, runner = make_runner(enable_two_phase_commit=False)
        assert run_txn(env, cluster, runner, Account, "a", "deposit",
                       7) == 7
        assert run_txn(env, cluster, runner, Account, "a", "balance") == 7

    def test_non_txn_read_sees_committed_state_only(self):
        env, cluster, runner = make_runner()
        run_txn(env, cluster, runner, Account, "a", "deposit", 50)
        ref = cluster.grain_ref(Account, "a")
        # Call without a transaction context: read-committed path.
        promise = ref.call("balance")
        assert env.run(until=promise) == 50

    def test_write_outside_transaction_rejected(self):
        env, cluster, runner = make_runner()
        ref = cluster.grain_ref(Account, "a")
        promise = ref.call("deposit", 1)  # no txn context
        with pytest.raises(TransactionAborted):
            env.run(until=promise)

    def test_context_status_transitions(self):
        ctx = TransactionContext(0.0)
        assert ctx.status is TransactionStatus.ACTIVE
        assert ctx.is_active
        ctx.status = TransactionStatus.COMMITTED
        assert not ctx.is_active

    def test_priority_inheritance(self):
        first = TransactionContext(5.0)
        retry = TransactionContext(9.0, inherit_priority=first.priority)
        assert retry.priority == first.priority
        assert retry.txid != first.txid

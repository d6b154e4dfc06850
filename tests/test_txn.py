"""Unit tests for the distributed transaction layer."""

import hashlib
import json
from functools import partial

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.actors import Cluster, Grain, SiloUnavailable
from repro.apps import ALL_APPS, AppConfig
from repro.core import (
    BenchmarkDriver,
    DriverConfig,
    TransactionMix,
    WorkloadConfig,
    audit_app,
)
from repro.costs import CostModel
from repro.runtime import Environment
from repro.txn import (
    LockManager,
    LockMode,
    TransactionAborted,
    TransactionContext,
    TransactionParticipant,
    TransactionRunner,
    TransactionStatus,
    TransactionalGrain,
)
from repro.txn.participant import (
    collect_votes,
    install_staged,
    log_committed,
    log_prepared,
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
        src = self.cluster.grain_ref(Account, source)
        dst = self.cluster.grain_ref(Account, target)
        yield self.call(src, "withdraw", amount)
        yield self.call(dst, "deposit", amount)
        return amount


def make_runner(seed=1, **config_kwargs):
    env = Environment(seed=seed)
    cluster = Cluster(env, AppConfig(**config_kwargs))
    runner = TransactionRunner(cluster)
    return env, cluster, runner


def run_txn(env, cluster, runner, grain_type, key, method, *args):
    ref = cluster.grain_ref(grain_type, key)
    return env.run(until=runner.run(
        lambda ctx: ref.call(method, *args, txn=ctx)))


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

    def test_two_upgraders_never_wait_for_each_other(self):
        # A shared grant ignores a queued upgrade, so an older reader can
        # become a holder in front of a younger waiting upgrader.  When
        # the reader upgrades too, each would wait for the other's S
        # lock forever; wait-die must kill the younger one at the grant.
        env, lock = self.make()
        oldest, middle, youngest = (TransactionContext(float(start))
                                    for start in range(3))
        self.grant(env, lock, middle, LockMode.SHARED)
        self.grant(env, lock, youngest, LockMode.SHARED)
        outcomes = {}

        def upgrade(ctx):
            try:
                yield from lock.acquire(ctx, LockMode.EXCLUSIVE)
            except TransactionAborted as exc:
                outcomes[ctx.txid] = exc.reason
                lock.release(ctx)  # an aborted transaction frees its locks
            else:
                outcomes[ctx.txid] = "granted"

        env.process(upgrade(middle))
        env.run()  # queued: older than the youngest holder
        assert outcomes == {} and lock.waits == 1
        self.grant(env, lock, oldest, LockMode.SHARED)
        lock.release(youngest)
        env.process(upgrade(oldest))
        env.run()
        assert outcomes == {middle.txid: "wait-die",
                            oldest.txid: "granted"}
        assert lock.held_by(oldest) is LockMode.EXCLUSIVE
        assert lock.deaths == 1 and not lock._queue

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


class LockTable(RuleBasedStateMachine):
    """Random interleavings of lock requests, commits, aborts, ends of
    waiting transactions and kernel steps over one participant's lock,
    on a real environment.

    Requests go through ``TransactionalGrain.txn_read`` / ``txn_write``
    — the inline grant when the lock is uncontended, ``LockManager
    .acquire`` otherwise — and are driven by hand, so the table is
    checked right after an inline grant as well as after every wake-up.
    Commits go through the coordinator's participant steps.
    """

    #: Transactions in flight at once (committed ones make room).
    MAX_LIVE = 5

    def __init__(self):
        super().__init__()
        self.env = Environment(seed=1)
        self.participant = TransactionParticipant(
            self.env, ("Account", "k"))
        self.lock = self.participant.lock
        #: The participant's grain, detached: ``request`` sets the
        #: transaction a request runs in, as a silo does for a turn.
        self.grain = TransactionalGrain()
        self.grain._participant = self.participant
        self.contexts = []
        #: txid -> "idle" (may request), "waiting" (parked on a lock
        #: event), "dead" (died of wait-die) or "done" (committed,
        #: aborted, or ended while it waited and gave up).
        self.phase = {}
        self.acquires = 0
        acquire = self.lock.acquire

        def counting_acquire(ctx, mode):
            self.acquires += 1
            return acquire(ctx, mode)

        self.lock.acquire = counting_acquire

    def ready(self, *phases):
        return [ctx for ctx in self.contexts
                if self.phase[ctx.txid] in phases]

    def advance(self, ctx, request, event):
        """Run the request's generator to its next wait (a tiny
        process): granted, parked on a lock event, or dead."""
        try:
            if event is None:
                waited = next(request)
            elif event.ok:
                waited = request.send(event.value)
            else:
                event.defuse()
                waited = request.throw(event.value)
        except StopIteration:
            self.phase[ctx.txid] = "idle"
        except TransactionAborted as abort:
            if ctx.status is TransactionStatus.ABORTED:
                # Ended while it waited: it gives up or dies, either way
                # without the lock.
                assert abort.reason in ("failure", "wait-die"), abort
                self.phase[ctx.txid] = "done"
            else:
                assert abort.reason == "wait-die"
                self.phase[ctx.txid] = "dead"
        else:
            self.phase[ctx.txid] = "waiting"
            waited.callbacks.append(partial(self.advance, ctx, request))

    @initialize(starts=st.lists(st.integers(0, 4), min_size=2,
                                max_size=MAX_LIVE))
    def begin_several(self, starts):
        for start in starts:
            self.begin(start)

    @precondition(lambda self: len(self.ready("idle", "waiting", "dead"))
                  < self.MAX_LIVE)
    @rule(start=st.integers(0, 4))
    def begin(self, start):
        ctx = TransactionContext(float(start))
        self.contexts.append(ctx)
        self.phase[ctx.txid] = "idle"

    @precondition(lambda self: self.ready("idle"))
    @rule(data=st.data(), write=st.booleans())
    def request(self, data, write):
        ctx = data.draw(st.sampled_from(self.ready("idle")))
        holders = dict(self.lock._holders)
        queued = bool(self.lock._queue)
        acquires = self.acquires
        mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
        self.grain.current_txn = ctx
        request = (self.grain.txn_write({"by": ctx.txid}) if write
                   else self.grain.txn_read())
        self.advance(ctx, request, None)
        held = holders.get(ctx.txid)
        new_grant = held is None or (
            write and held[1] is LockMode.SHARED)
        if self.acquires == acquires and new_grant:
            # Granted inline: nobody was bypassed.
            assert self.lock.held_by(ctx) is mode
            assert not queued, "an inline grant bypassed a queued waiter"
            assert set(holders) <= {ctx.txid}, (
                "an inline grant ignored another holder")

    @precondition(lambda self: self.ready("idle"))
    @rule(data=st.data())
    def commit(self, data):
        ctx = data.draw(st.sampled_from(self.ready("idle")))
        participant = self.participant
        if collect_votes([participant], ctx):
            ctx.status = TransactionStatus.PREPARING
            log_prepared([participant], ctx)
            install_staged([participant], ctx)
            log_committed([participant], ctx)
            ctx.status = TransactionStatus.COMMITTED
        else:
            ctx.status = TransactionStatus.ABORTED
            participant.abort(ctx)
        self.phase[ctx.txid] = "done"

    @precondition(lambda self: self.ready("idle", "dead"))
    @rule(data=st.data())
    def abort(self, data):
        ctx = data.draw(st.sampled_from(self.ready("idle", "dead")))
        ctx.status = TransactionStatus.ABORTED
        self.participant.abort(ctx)
        self.phase[ctx.txid] = "done"

    def waiting_and_active(self):
        return [ctx for ctx in self.ready("waiting") if ctx.is_active]

    @precondition(lambda self: self.waiting_and_active())
    @rule(data=st.data())
    def end_while_waiting(self, data):
        """The transaction ends elsewhere — its body dies with a
        crashed silo — while this request waits: the runner marks it
        aborted and rolls back the participants it enlisted, which
        need not include this one."""
        ctx = data.draw(st.sampled_from(self.waiting_and_active()))
        ctx.status = TransactionStatus.ABORTED
        if self.participant.identity in ctx.participants:
            self.participant.abort(ctx)

    @rule()
    def step(self):
        """Run every kernel entry due now, not those they schedule."""
        marker = self.env.event()
        self.env.schedule(marker)
        self.env.run(until=marker)

    @rule()
    def drain(self):
        self.env.run()

    @invariant()
    def holders_are_compatible(self):
        modes = [mode for _, mode in self.lock._holders.values()]
        assert LockMode.EXCLUSIVE not in modes or len(modes) == 1, modes

    @invariant()
    def waiters_wait_only_for_younger_holders(self):
        """Every queued waiter conflicts with some holder (no lost
        wake-up) and is older than each one it conflicts with."""
        for waiter in self.lock._queue:
            assert self.phase[waiter.ctx.txid] == "waiting"
            conflicting = [
                holder for txid, (holder, mode)
                in self.lock._holders.items()
                if txid != waiter.ctx.txid
                and LockMode.EXCLUSIVE in (mode, waiter.mode)]
            assert conflicting, "a waiter was not woken"
            for holder in conflicting:
                assert waiter.ctx.older_than(holder), (
                    waiter.ctx.priority, holder.priority)

    @invariant()
    def finished_transactions_hold_nothing(self):
        for txid, (holder, _mode) in self.lock._holders.items():
            assert self.phase[txid] != "done"
            assert holder.status not in (TransactionStatus.COMMITTED,
                                         TransactionStatus.ABORTED), (
                "a finished transaction holds the lock")


TestLockTable = LockTable.TestCase
TestLockTable.settings = settings(max_examples=150,
                                  stateful_step_count=50, deadline=None)


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

    @pytest.mark.usefixtures("no_txn_retries")
    def test_application_abort_rolls_back_everything(self):
        env, cluster, runner = make_runner()
        run_txn(env, cluster, runner, Account, "a", "deposit", 10)
        # Transfer more than the balance: withdraw aborts AFTER deposit
        # order within the method; ensure nothing leaked.
        with pytest.raises(TransactionAborted):
            run_txn(env, cluster, runner, Bank, "bank", "transfer",
                    "a", "b", 999)
        assert run_txn(env, cluster, runner, Account, "a", "balance") == 10
        assert run_txn(env, cluster, runner, Account, "b", "balance") == 0

    @pytest.mark.usefixtures("no_txn_retries")
    def test_aborted_txn_releases_locks(self):
        env, cluster, runner = make_runner()
        run_txn(env, cluster, runner, Account, "a", "deposit", 10)
        with pytest.raises(TransactionAborted):
            run_txn(env, cluster, runner, Account, "a", "withdraw", 999)
        # Lock must be free again: next transaction proceeds.
        assert run_txn(env, cluster, runner, Account, "a", "deposit",
                       5) == 15

    def test_concurrent_increments_are_serialised(self):
        env, cluster, runner = make_runner()
        ref = cluster.grain_ref(Account, "hot")
        transactions = [
            runner.run(lambda ctx: ref.call("deposit", 1, txn=ctx))
            for _ in range(25)]
        env.run()
        failed = [txn for txn in transactions if not txn.ok]
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
        transactions = []
        for source, target in pairs:
            transactions.append(runner.run(
                lambda ctx, s=source, t=target: bank.call(
                    "transfer", s, t, 1, txn=ctx)))
        env.run()
        committed = sum(1 for txn in transactions if txn.ok)
        assert committed >= 1
        total = sum(
            run_txn(env, cluster, runner, Account, key, "balance")
            for key in ("a", "b", "c"))
        assert total == 300

    def test_retry_preserves_priority_and_eventually_commits(
            self, monkeypatch):
        monkeypatch.setattr("repro.txn.coordinator.MAX_RETRIES", 10)
        env, cluster, runner = make_runner()
        ref = cluster.grain_ref(Account, "hot")
        transactions = [
            runner.run(lambda ctx: ref.call("deposit", 1, txn=ctx))
            for _ in range(10)]
        env.run()
        assert all(txn.ok for txn in transactions)
        assert runner.stats.committed == 10

    @pytest.mark.usefixtures("no_txn_retries")
    def test_stats_track_aborts(self):
        env, cluster, runner = make_runner()
        with pytest.raises(TransactionAborted):
            run_txn(env, cluster, runner, Account, "a", "withdraw", 1)
        assert runner.stats.aborted == 1
        assert runner.stats.started == 1

    def test_transaction_latency_includes_2pc_rounds(self):
        env, cluster, runner = make_runner()
        start = env.now
        run_txn(env, cluster, runner, Account, "a", "deposit", 1)
        elapsed = env.now - start
        costs = cluster.costs
        # At minimum: grain call + prepare round-trip + participant log
        # force + coordinator log + commit hop.
        floor = (2 * costs.control_latency
                 + costs.participant_log_latency
                 + costs.coordinator_log_latency)
        assert elapsed >= floor

    def test_ablation_without_locking_never_waits_or_dies(self):
        """``AppConfig.enable_locking`` reaches the lock manager: the
        same hot-key burst that costs wait-die retries under locking
        runs straight through without it (and loses updates)."""
        outcomes = {}
        for locking in (True, False):
            env, cluster, runner = make_runner(enable_locking=locking)
            ref = cluster.grain_ref(Account, "hot")
            transactions = [
                runner.run(lambda ctx: ref.call("deposit", 1, txn=ctx))
                for _ in range(10)]
            env.run()
            assert all(txn.ok for txn in transactions)
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


def test_sixteen_closed_loop_writers_do_not_stall_on_a_lock_cycle():
    """The ledger's ``peak-custom`` shape (closed loop, heavy-writer mix
    on a hot catalogue) at 16 workers.  Sub-seed 801 once parked every
    worker behind two upgraders waiting for each other: 224 of 227
    operations committed, against 1 377 at 8 workers."""
    env = Environment(seed=801)
    app = ALL_APPS["customized-orleans"](
        env, AppConfig(silos=2, cores_per_silo=2))
    workload = WorkloadConfig(
        sellers=6, customers=64, products_per_seller=8, zipf_s=1.0,
        mix=TransactionMix(checkout=30.0, price_update=40.0,
                           product_delete=8.0, update_delivery=7.0,
                           dashboard=15.0))
    metrics = BenchmarkDriver(
        env, app, workload,
        DriverConfig(workers=16, warmup=0.5, duration=2.0, drain=1.0),
        data_seed=801).run()
    assert sum(op.ok for op in metrics.ops.values()) >= 1000


class Reader(TransactionalGrain):
    """Reads an account's balance through a nested call."""

    def peek(self, key):
        account = self.cluster.grain_ref(Account, key)
        return (yield self.call(account, "balance"))


@pytest.mark.usefixtures("instant_failure_detection", "no_txn_retries")
def test_a_waiter_whose_transaction_ended_elsewhere_is_not_granted():
    """An older transaction's nested read queues behind a younger one's
    X lock; the silo running the older one's body crashes, and the
    runner aborts the attempt before the waiting read ever enlisted
    the account.  When the younger one commits, the woken read must
    give up rather than take the lock for a dead transaction: a lock
    so leaked makes every later writer of the account die by
    wait-die."""
    env = Environment(seed=1)
    cluster = Cluster(env, AppConfig(silos=2))
    runner = TransactionRunner(cluster)
    account = cluster.grain_ref(Account, "x")
    home = cluster.placement.place("Account", "x")
    (crashing,) = [silo for silo in cluster.silos if silo is not home]
    reader = cluster.grain_ref(Reader, next(
        key for key in (f"r{i}" for i in range(100))
        if cluster.placement.place("Reader", key) is crashing))

    def older_body(ctx):
        yield env.timeout(0.002)  # the younger one writes first
        return (yield reader.call("peek", "x", txn=ctx))

    def younger_body(ctx):
        yield account.call("deposit", 5, txn=ctx)
        yield env.timeout(0.01)

    older = runner.run(lambda ctx: env.process(older_body(ctx)))
    younger = runner.run(lambda ctx: env.process(younger_body(ctx)))
    older.callbacks.append(lambda event: event.defuse())
    lock = cluster.grain_instance(account).participant.lock
    env.run(until=0.005)
    assert [waiter.ctx for waiter in lock._queue] == [older.ctx]
    cluster.crash_silo(crashing)
    env.run(until=1.0)
    assert younger.ok and not older.ok
    assert isinstance(older.value, SiloUnavailable)
    assert older.ctx.status is TransactionStatus.ABORTED
    assert lock.holders() == [] and not lock._queue
    assert env.run(until=runner.run(
        lambda ctx: account.call("deposit", 1, txn=ctx))) == 6


# ---------------------------------------------------------------------------
# The 2PC ablations (bench A1), pinned
# ---------------------------------------------------------------------------
#: ``(started, committed, retries, payload hash)`` of one short
#: bench-A1-shaped cell per ``AppConfig`` ablation and 2PC stack.  The
#: ledger runs only the full protocol; these pin the non-locking vote
#: and the one-shot commit of the no-2PC ablation too.
ABLATION_PINS = {
    ("orleans-transactions", "full"): (986, 493, 493, "6127ea3ef34af6ff"),
    ("orleans-transactions", "no-2pc"): (1142, 612, 530, "fe8550cd49cab1f3"),
    ("orleans-transactions", "no-locks"): (
        2173, 2173, 0, "009f026a94110238"),
    ("orleans-transactions", "neither"): (2782, 2782, 0, "86da86634ac2f0fc"),
    ("customized-orleans", "full"): (914, 475, 437, "28a54130d179036e"),
    ("customized-orleans", "no-2pc"): (1207, 650, 557, "141e842836078877"),
    ("customized-orleans", "no-locks"): (2326, 2326, 0, "c5f32cea6ea77962"),
    ("customized-orleans", "neither"): (3059, 3059, 0, "ad74431b9ea73137"),
}


def ablation_cell(app_name, variant):
    """Bench A1's cell (seed 43, 2 silos x 2 cores, 32 closed-loop
    workers) over a 0.3 s window; returns its ``ABLATION_PINS`` row."""
    env = Environment(seed=43)
    app = ALL_APPS[app_name](env, AppConfig(
        silos=2, cores_per_silo=2,
        enable_two_phase_commit=variant not in ("no-2pc", "neither"),
        enable_locking=variant not in ("no-locks", "neither")))
    driver = BenchmarkDriver(
        env, app,
        WorkloadConfig(sellers=6, customers=48, products_per_seller=6),
        DriverConfig(workers=32, warmup=0.1, duration=0.3, drain=0.5))
    metrics = driver.run()
    report = audit_app(app, driver)
    payload = {
        "total_tps": round(metrics.total_throughput, 3),
        "ops": metrics.summary_rows(),
        "criteria": {name: [result.passed, result.violations,
                            result.checked]
                     for name, result in sorted(report.results.items())},
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    stats = metrics.runtime["transactions"]
    return (stats["started"], stats["committed"], stats["retries"],
            hashlib.blake2b(text.encode(), digest_size=8).hexdigest())


@pytest.mark.parametrize("app_name, variant", sorted(ABLATION_PINS))
def test_two_phase_commit_ablations_are_pinned(app_name, variant):
    assert ablation_cell(app_name, variant) == \
        ABLATION_PINS[app_name, variant]


# ---------------------------------------------------------------------------
# 2PC crash points: today's outcomes, pinned
# ---------------------------------------------------------------------------
# The coordinator has no crash branch: its rounds reach the enlisted
# participant objects directly, and none consults membership.  So a
# transaction whose participant's silo crashes after the prepare
# record, or after the commit decision, still commits — on the
# abandoned participant object — and the grain re-activates on the
# survivor with empty state, holding no prepared entry and no lock.
# A transaction whose caller's silo crashes mid-round commits too; only
# the caller's own call fails.  A recovery protocol (presumed abort, a
# commit round to the grain's current owner) would change these pins.
CRASH_HOP, CRASH_LOG, CRASH_DECIDE = 0.0004, 0.001, 0.0016
CRASH_COSTS = CostModel(control_latency=CRASH_HOP,
                        participant_log_latency=CRASH_LOG,
                        coordinator_log_latency=CRASH_DECIDE)
#: Crash delays after the body's promise fires, half a hop into the
#: named window.
AFTER_PREPARE_RECORD = CRASH_HOP + CRASH_LOG + CRASH_HOP / 2
AFTER_DECISION = (CRASH_HOP + CRASH_LOG + CRASH_HOP + CRASH_DECIDE
                  + CRASH_HOP / 2)


def crash_point_cluster():
    """Two silos (run under ``instant_failure_detection`` and
    ``no_txn_retries``); returns (env, cluster, runner, victim silo,
    surviving silo)."""
    env = Environment(seed=1)
    cluster = Cluster(env, AppConfig(silos=2, costs=CRASH_COSTS))
    runner = TransactionRunner(cluster)
    victim, survivor = cluster.silos
    return env, cluster, runner, victim, survivor


def keys_on(cluster, type_name, silo, count=1):
    keys = (f"{type_name[0].lower()}{index}" for index in range(100))
    return [key for key in keys
            if cluster.placement.place(type_name, key) is silo][:count]


def crash_after(env, cluster, silo, promise, delay, crashed):
    """Crash ``silo`` ``delay`` after the body's ``promise`` fires;
    append the crash time to ``crashed``."""
    def crash(_event):
        crashed.append(env.now)
        cluster.crash_silo(silo)

    promise.callbacks.append(
        lambda _event: env.call_after(delay, crash))
    return promise


def left_behind(participant):
    """A participant's prepared entries and lock holders."""
    return sorted(participant._prepared), sorted(participant.lock._holders)


@pytest.mark.usefixtures("instant_failure_detection", "no_txn_retries")
@pytest.mark.parametrize("delay", [AFTER_PREPARE_RECORD, AFTER_DECISION],
                         ids=["after-yes-vote", "after-decision"])
def test_a_participant_crash_mid_commit_is_pinned(delay):
    env, cluster, runner, victim, survivor = crash_point_cluster()
    (lost_key,) = keys_on(cluster, "Account", victim)
    (kept_key,) = keys_on(cluster, "Account", survivor)
    lost = cluster.grain_ref(Account, lost_key)
    kept = cluster.grain_ref(Account, kept_key)
    for ref in (lost, kept):
        env.run(until=runner.run(
            lambda ctx, ref=ref: ref.call("deposit", 100, txn=ctx)))

    crashed = []

    def body(ctx):
        return crash_after(env, cluster, victim, env.all_of([
            lost.call("deposit", 5, txn=ctx),
            kept.call("deposit", 7, txn=ctx)]), delay, crashed)

    transaction = runner.run(body)
    env.run(until=1.0)
    assert victim.state == "crashed"
    # Committed: the coordinator never learned of the crash.
    assert transaction.ok and sorted(transaction.value.values()) == [105, 107]
    assert (runner.stats.committed, runner.stats.aborted) == (3, 0)
    abandoned = transaction.ctx.participants[("Account", lost_key)]
    assert abandoned.committed_state == {"balance": 105}
    (*_, (prepared_at, _, prepared), (_, _, committed)) = \
        abandoned.commit_log
    assert (prepared, committed) == ("prepared", "committed")
    # The crash fell in the window under test.
    assert crashed == [pytest.approx(
        prepared_at + delay - CRASH_HOP - CRASH_LOG)]
    # Re-activated on the survivor with neither the seeded 100 nor the
    # committed 5: the state died with the silo.
    reactivated = cluster.grain_instance(lost).participant
    assert cluster.grain_instance(lost).silo is survivor
    assert reactivated.committed_state == {}
    assert cluster.grain_instance(kept).participant.committed_state == {
        "balance": 107}
    for participant in (abandoned, reactivated,
                        cluster.grain_instance(kept).participant):
        assert left_behind(participant) == ([], [])
    assert [env.run(until=runner.run(
        lambda ctx, ref=ref: ref.call("balance", txn=ctx)))
        for ref in (lost, kept)] == [0, 107]


class Initiator(Grain):
    """Starts a transfer transaction on ``runner`` from inside its own
    turn, handing the body's promise to ``started``."""

    reentrant = True

    def transfer(self, runner, source, target, amount, started):
        debit = self.cluster.grain_ref(Account, source)
        credit = self.cluster.grain_ref(Account, target)

        def body(ctx):
            return started(self.env.all_of([
                debit.call("deposit", -amount, txn=ctx),
                credit.call("deposit", amount, txn=ctx)]))

        return (yield runner.run(body))


@pytest.mark.usefixtures("instant_failure_detection", "no_txn_retries")
def test_a_caller_crash_mid_round_is_pinned():
    env, cluster, runner, victim, survivor = crash_point_cluster()
    (initiator_key,) = keys_on(cluster, "Initiator", victim)
    source, target = keys_on(cluster, "Account", survivor, count=2)
    accounts = [cluster.grain_ref(Account, key) for key in (source, target)]
    for ref in accounts:
        env.run(until=runner.run(
            lambda ctx, ref=ref: ref.call("deposit", 100, txn=ctx)))
    crashed = []

    def started(promise):
        # Half-way through the prepare round's log force.
        return crash_after(env, cluster, victim, promise,
                           CRASH_HOP + CRASH_LOG / 2, crashed)

    call = cluster.grain_ref(Initiator, initiator_key).call(
        "transfer", runner, source, target, 5, started)
    call.callbacks.append(lambda event: event.defuse())
    env.run(until=1.0)
    # The caller's call fails; the transaction it started commits.
    assert not call.ok and isinstance(call.value, SiloUnavailable)
    assert (runner.stats.committed, runner.stats.aborted) == (3, 0)
    states = [cluster.grain_instance(ref).participant for ref in accounts]
    assert [participant.committed_state for participant in states] == [
        {"balance": 95}, {"balance": 105}]
    assert all(participant.commits == 2 and participant.aborts == 0
               for participant in states)
    # The crash fell half-way through the prepare record's log force.
    txid = states[0].commit_log[-1][1]
    assert [participant.commit_log[-2] for participant in states] == [
        (pytest.approx(crashed[0] + CRASH_LOG / 2), txid, "prepared")] * 2
    for participant in states:
        assert left_behind(participant) == ([], [])

"""Transaction participants and the transactional grain base class."""

from __future__ import annotations

import collections
import typing

from repro.actors.grain import Grain
from repro.cow import CowState, materialize
from repro.txn.context import TransactionContext, TransactionStatus
from repro.txn.errors import TransactionAborted
from repro.txn.locks import LockManager, LockMode

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment

#: Commit-log entries retained per participant (bounded tail; the
#: full per-outcome counts live in ``commits``/``aborts``/``prepares``).
COMMIT_LOG_TAIL = 64


class TransactionParticipant:
    """Per-grain transactional state manager.

    Holds the committed state, per-transaction staged writes, and the
    grain's lock.  The 2PC steps and abort are invoked by the coordinator
    *outside* the grain's mailbox — exactly like Orleans' transaction
    agent — so a commit can never deadlock behind a queued grain call
    that is itself waiting for the commit's locks.

    State is managed copy-on-write (:mod:`repro.cow`): reads hand out
    an isolated :class:`~repro.cow.CowState` view in O(1), writes stage
    a materialised version sharing untouched sub-trees with committed
    state, and commit installs the staged version by reference.  The
    committed tree is frozen by contract — it is only ever replaced,
    never mutated in place.
    """

    def __init__(self, env: "Environment", identity: tuple[str, str],
                 log_write_latency: float,
                 initial_state: dict | None = None) -> None:
        self.env = env
        self.identity = identity
        self.lock = LockManager(env, f"{identity[0]}/{identity[1]}")
        self.log_write_latency = log_write_latency
        self.committed_state: dict = initial_state or {}
        self._staged: dict[int, dict] = {}
        self._prepared: set[int] = set()
        #: Bounded tail of (time, txid, outcome) records; older entries
        #: roll off but the counters below keep the full totals.
        self.commit_log: collections.deque[tuple[float, int, str]] = \
            collections.deque(maxlen=COMMIT_LOG_TAIL)
        self.prepares = 0
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # data access (called from inside grain methods)
    # ------------------------------------------------------------------
    def read(self, ctx: TransactionContext):
        """Process helper: S-lock and return a private view of state."""
        if ctx.status is not TransactionStatus.ACTIVE:
            raise TransactionAborted(
                f"txn {ctx.txid} no longer active", reason="failure")
        yield from self.lock.acquire(ctx, LockMode.SHARED)
        ctx.participants.setdefault(self.identity, self)
        if ctx.txid in self._staged:
            return CowState(self._staged[ctx.txid])
        return CowState(self.committed_state)

    def write(self, ctx: TransactionContext, state: dict):
        """Process helper: X-lock and stage the new state."""
        if ctx.status is not TransactionStatus.ACTIVE:
            raise TransactionAborted(
                f"txn {ctx.txid} no longer active", reason="failure")
        yield from self.lock.acquire(ctx, LockMode.EXCLUSIVE)
        ctx.participants.setdefault(self.identity, self)
        # An untouched view materialises to its frozen base by
        # reference, so a read-decide-write-back costs no rebuild.
        self._staged[ctx.txid] = materialize(state)

    def read_committed(self) -> CowState:
        """Lock-free read of the last committed state (non-txn callers)."""
        return CowState(self.committed_state)

    def write_committed(self, state: dict) -> None:
        """Lock-free direct write (non-transactional replication paths).

        Used where the paper's platforms offer no transactional
        primitive — e.g. event-driven replica maintenance — so the write
        bypasses locking exactly like the real system would.
        """
        self.committed_state = materialize(state)

    # ------------------------------------------------------------------
    # two-phase commit (called by the coordinator)
    # ------------------------------------------------------------------
    # The coordinator models the control hops and log forces between
    # these steps (``TransactionRunner._round``); each step itself is
    # instantaneous.
    def vote(self, ctx: TransactionContext) -> bool:
        """Prepare request arrived: vote yes/no."""
        # Lost our locks (e.g. the txn died elsewhere): veto.
        return not ctx.locking or ctx.txid in self.lock._holders

    def mark_prepared(self, ctx: TransactionContext) -> None:
        """The prepare record is durable."""
        self._prepared.add(ctx.txid)
        self.prepares += 1
        self.commit_log.append((self.env.now, ctx.txid, "prepared"))

    def install(self, ctx: TransactionContext) -> bool:
        """Commit decision arrived: install the staged state.

        The staged version was materialised at write time, so the
        install is a reference swap, not a copy.  Returns True (the
        commit record is always forced next).
        """
        if ctx.txid in self._staged:
            self.committed_state = self._staged.pop(ctx.txid)
        return True

    def mark_committed(self, ctx: TransactionContext) -> None:
        """The commit record is durable: log it and release locks."""
        self.commits += 1
        self.commit_log.append((self.env.now, ctx.txid, "committed"))
        self._prepared.discard(ctx.txid)
        self.lock.release(ctx)

    def abort(self, ctx: TransactionContext) -> None:
        """Discard staged state and release locks (no log force needed)."""
        self._staged.pop(ctx.txid, None)
        self._prepared.discard(ctx.txid)
        self.aborts += 1
        self.commit_log.append((self.env.now, ctx.txid, "aborted"))
        self.lock.release(ctx)


class TransactionalGrain(Grain):
    """A grain whose state is managed by a :class:`TransactionParticipant`.

    Inside a transactional method (``self.current_txn`` set), use
    :meth:`txn_read` / :meth:`txn_write`; outside, :meth:`txn_read`
    falls back to the last committed state, giving non-transactional
    queries read-committed semantics.
    """

    log_write_latency: float = 0.0005

    #: Transactional grains interleave message processing: isolation
    #: comes from the participant's locks, not from turn concurrency.
    #: (A non-reentrant mailbox can deadlock invisibly to wait-die: txn
    #: A blocks on a lock held by B while B's next call to this grain is
    #: queued behind A's executing method.)
    reentrant = True

    def __init__(self) -> None:
        super().__init__()
        self._participant: TransactionParticipant | None = None

    @property
    def participant(self) -> TransactionParticipant:
        if self._participant is None:
            self._participant = TransactionParticipant(
                self.env, (type(self).__name__, self.key),
                self.log_write_latency)
        return self._participant

    def txn_read(self):
        """Process helper: read state under the current transaction."""
        ctx = self.current_txn
        if ctx is None:
            return self.participant.read_committed()
            yield  # pragma: no cover - generator marker
        state = yield from self.participant.read(ctx)
        return state

    def txn_write(self, state: dict):
        """Process helper: write state under the current transaction."""
        ctx = self.current_txn
        if ctx is None:
            raise TransactionAborted(
                f"{self!r}: write outside a transaction", reason="failure")
        yield from self.participant.write(ctx, state)

    def non_txn_write(self, state: dict) -> None:
        """Direct committed-state write for non-transactional paths."""
        self.participant.write_committed(state)

    # ------------------------------------------------------------------
    # working-set paging
    # ------------------------------------------------------------------
    def page_out(self) -> dict | None:
        """Snapshot the participant for the working-set pager.

        Refuses (returns None) while any transaction touches this
        grain — staged writes, prepared votes, held locks or queued
        waiters — because a fresh participant on re-activation would
        silently drop that in-flight coordination state.
        """
        participant = self._participant
        if participant is None:
            return {}  # never touched: identity-only activation
        if (participant._staged or participant._prepared
                or participant.lock._holders or participant.lock._queue):
            return None  # mid-transaction: must stay resident
        return {
            "state": participant.committed_state,
            "prepares": participant.prepares,
            "commits": participant.commits,
            "aborts": participant.aborts,
            "commit_log": list(participant.commit_log),
        }

    def page_in(self, paged: dict) -> None:
        if not paged:
            return
        participant = self.participant  # (re)created lazily
        participant.committed_state = paged["state"]
        participant.prepares = paged["prepares"]
        participant.commits = paged["commits"]
        participant.aborts = paged["aborts"]
        participant.commit_log.extend(paged["commit_log"])

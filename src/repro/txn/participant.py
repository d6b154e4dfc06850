"""Transaction participants and the transactional grain base class."""

from __future__ import annotations

import collections
import typing
from types import MappingProxyType

from repro.actors.grain import Grain
from repro.cow import materialize
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
    grain's lock.  The 2PC steps (the module functions below) and abort
    are invoked by the coordinator *outside* the grain's mailbox —
    exactly like Orleans' transaction agent — so a commit can never
    deadlock behind a queued grain call that is itself waiting for the
    commit's locks.

    State is a frozen dict: a read hands out the committed (or this
    transaction's staged) dict behind a read-only
    :class:`types.MappingProxyType` in O(1), a write stages the new
    dict by reference, and commit installs it by reference.  Updaters
    build new dicts (``repro.cow.assoc_in`` / ``{**state, ...}``), so
    a staged dict shares its untouched sub-trees with committed state.
    The proxy refuses top-level writes; below the top level the tree
    is frozen by contract — never mutate a container reached through
    a read, nor a dict after handing it to
    :meth:`TransactionalGrain.txn_write` (``tests/test_frozen_state.py``
    checks both on the real stacks).
    """

    def __init__(self, env: "Environment", identity: tuple[str, str],
                 initial_state: dict | None = None) -> None:
        self.env = env
        self.identity = identity
        self.lock = LockManager(env, f"{identity[0]}/{identity[1]}")
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

    def read_committed(self) -> MappingProxyType:
        """Lock-free read-only view of the last committed state
        (non-txn callers)."""
        return MappingProxyType(self.committed_state)

    def write_committed(self, state: dict) -> None:
        """Lock-free direct write (non-transactional replication paths).

        Used where the paper's platforms offer no transactional
        primitive — e.g. event-driven replica maintenance — so the write
        bypasses locking exactly like the real system would.  Also the
        ingestion path: ``materialize`` rebuilds the caller's containers,
        so the installed tree shares nothing the caller keeps mutating.
        """
        self.committed_state = materialize(state)

    def abort(self, ctx: TransactionContext) -> None:
        """Discard staged state and release locks (no log force needed)."""
        self._staged.pop(ctx.txid, None)
        self._prepared.discard(ctx.txid)
        self.aborts += 1
        self.commit_log.append((self.env.now, ctx.txid, "aborted"))
        self.lock.release(ctx)


# Two-phase commit steps, called by the coordinator (``Transaction``),
# which models the hops and log forces between them.  Each visits a
# round's participants in enlistment order, instantaneously.
def collect_votes(participants: list[TransactionParticipant],
                  ctx: TransactionContext) -> list[TransactionParticipant]:
    """The prepare request arrived: the participants that vote yes.
    One that lost its locks (the transaction died elsewhere) vetoes; a
    non-locking context holds none, and nobody vetoes it."""
    if not ctx.locking:
        return participants
    txid = ctx.txid
    voters = []
    for participant in participants:
        if txid in participant.lock._holders:
            voters.append(participant)
    return voters


def log_prepared(participants: list[TransactionParticipant],
                 ctx: TransactionContext) -> None:
    """The prepare records are durable."""
    txid = ctx.txid
    for participant in participants:
        participant._prepared.add(txid)
        participant.prepares += 1
        participant.commit_log.append(
            (participant.env.now, txid, "prepared"))


def install_staged(participants: list[TransactionParticipant],
                   ctx: TransactionContext) -> None:
    """The commit decision arrived: install each staged state, a
    reference swap of the staged dict, not a copy."""
    txid = ctx.txid
    for participant in participants:
        staged = participant._staged.pop(txid, None)
        if staged is not None:
            participant.committed_state = staged


def log_committed(participants: list[TransactionParticipant],
                  ctx: TransactionContext) -> None:
    """The commit records are durable: log them and release the locks."""
    txid = ctx.txid
    for participant in participants:
        participant.commits += 1
        participant.commit_log.append(
            (participant.env.now, txid, "committed"))
        participant._prepared.discard(txid)
        # ``LockManager.release``, inline.
        lock = participant.lock
        lock._holders.pop(txid, None)
        if lock._queue:
            lock._wake()


class TransactionalGrain(Grain):
    """A grain whose state is managed by a :class:`TransactionParticipant`.

    Inside a transactional method (``self.current_txn`` set), use
    ``yield from self.txn_read()`` / ``yield from self.txn_write(new)``;
    outside, :meth:`txn_read` falls back to the last committed state,
    giving non-transactional queries read-committed semantics.  A read
    is a read-only proxy of a frozen dict: build the new state with
    ``repro.cow.assoc_in`` / ``{**state, ...}`` and never mutate a
    dict after writing it.
    """

    #: Transactional grains interleave message processing: isolation
    #: comes from the participant's locks, not from turn concurrency.
    #: (A non-reentrant mailbox can deadlock invisibly to wait-die: txn
    #: A blocks on a lock held by B while B's next call to this grain is
    #: queued behind A's executing method.)
    reentrant = True
    _participant: TransactionParticipant | None = None

    @property
    def participant(self) -> TransactionParticipant:
        if self._participant is None:
            self._participant = TransactionParticipant(
                self.env, (type(self).__name__, self.key))
        return self._participant

    def txn_read(self):
        """Process helper: S-lock and return a read-only view of the
        current transaction's state (staged if it wrote, else
        committed); outside a transaction, of the committed state."""
        participant = self._participant or self.participant
        ctx = self.current_txn
        if ctx is None:
            return MappingProxyType(participant.committed_state)
        if ctx.status is not TransactionStatus.ACTIVE:
            raise TransactionAborted(
                f"txn {ctx.txid} no longer active", reason="failure")
        # A holder of either mode already covers S, and a non-locking
        # context holds nothing.  An unheld lock with an empty queue is
        # granted inline, as ``acquire`` would grant it.
        lock = participant.lock
        holders = lock._holders
        txid = ctx.txid
        if ctx.locking and txid not in holders:
            if holders or lock._queue:
                yield from lock.acquire(ctx, LockMode.SHARED)
            else:
                holders[txid] = (ctx, LockMode.SHARED)
        ctx.participants.setdefault(participant.identity, participant)
        return MappingProxyType(
            participant._staged.get(txid, participant.committed_state))

    def txn_write(self, state: dict):
        """Process helper: X-lock and stage the new state by reference
        under the current transaction (a read proxy written back
        unchanged stages a shallow copy)."""
        ctx = self.current_txn
        if ctx is None:
            raise TransactionAborted(
                f"{self!r}: write outside a transaction", reason="failure")
        participant = self._participant or self.participant
        if ctx.status is not TransactionStatus.ACTIVE:
            raise TransactionAborted(
                f"txn {ctx.txid} no longer active", reason="failure")
        # With no other holder and an empty queue, X is granted (or a
        # sole S holder upgraded) inline, as ``acquire`` would grant it.
        lock = participant.lock
        holders = lock._holders
        txid = ctx.txid
        held = holders.get(txid)
        if ctx.locking and (held is None
                            or held[1] is not LockMode.EXCLUSIVE):
            others = len(holders) if held is None else len(holders) - 1
            if others or lock._queue:
                yield from lock.acquire(ctx, LockMode.EXCLUSIVE)
            else:
                holders[txid] = (ctx, LockMode.EXCLUSIVE)
        ctx.participants.setdefault(participant.identity, participant)
        participant._staged[txid] = state if type(state) is dict \
            else dict(state)

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

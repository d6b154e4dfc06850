"""Strict two-phase locking with wait-die deadlock avoidance."""

from __future__ import annotations

import collections
import enum
import typing

from repro.txn.context import TransactionContext, TransactionStatus
from repro.txn.errors import TransactionAborted

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class _Waiter:
    __slots__ = ("ctx", "mode", "event")

    def __init__(self, ctx: TransactionContext, mode: LockMode,
                 event) -> None:
        self.ctx = ctx
        self.mode = mode
        self.event = event


class LockManager:
    """A single lock protecting one participant's state.

    Wait-die: a requester that conflicts with current holders may wait
    only if it is *older* (lower priority tuple) than every conflicting
    holder; otherwise it dies with :class:`TransactionAborted` (reason
    ``"wait-die"``).  The rule is checked when a request first
    conflicts and again for every waiter whenever a grant or a release
    changes the holders.  Younger transactions therefore never wait
    behind older ones, which rules out deadlock cycles.  A waiter whose
    transaction is no longer active when it wakes gives up (reason
    ``"failure"``) instead of taking the lock.

    A context created with ``locking=False`` (the
    ``AppConfig.enable_locking`` ablation, bench A1) is granted every
    request at once and holds nothing: no isolation is provided.
    """

    def __init__(self, env: "Environment", name: str) -> None:
        self.env = env
        self.name = name
        self._holders: dict[int, tuple[TransactionContext, LockMode]] = {}
        self._queue: collections.deque[_Waiter] = collections.deque()
        self.waits = 0
        self.deaths = 0

    # ------------------------------------------------------------------
    def holders(self) -> list[tuple[TransactionContext, LockMode]]:
        return list(self._holders.values())

    def held_by(self, ctx: TransactionContext) -> LockMode | None:
        entry = self._holders.get(ctx.txid)
        return entry[1] if entry else None

    def _conflicts(self, ctx: TransactionContext, mode: LockMode
                   ) -> tuple[list[TransactionContext], bool]:
        """The holders a ``mode`` request by ``ctx`` conflicts with, and
        whether wait-die kills it: it is not older than all of them."""
        conflicting = []
        dies = False
        txid = ctx.txid
        priority = ctx.priority
        for holder_txid, (holder, held_mode) in self._holders.items():
            if holder_txid == txid:
                continue
            if mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE:
                conflicting.append(holder)
                if priority >= holder.priority:
                    dies = True
        return conflicting, dies

    # ------------------------------------------------------------------
    def acquire(self, ctx: TransactionContext, mode: LockMode):
        """Process helper: acquire (or upgrade to) ``mode`` for ``ctx``."""
        held = self._holders.get(ctx.txid)
        if not ctx.locking or (held is not None
                               and (held[1] is mode
                                    or held[1] is LockMode.EXCLUSIVE)):
            return
            yield  # pragma: no cover - generator marker
        while True:
            # An unheld lock is granted without a conflict scan.
            conflicting, dies = (self._conflicts(ctx, mode)
                                 if self._holders else ((), False))
            if not conflicting:
                self._holders[ctx.txid] = (ctx, mode)
                if self._queue:
                    self._wake()
                return
            if dies:
                self.deaths += 1
                raise TransactionAborted(
                    f"txn {ctx.txid} died on lock {self.name!r} "
                    f"(wait-die, held by "
                    f"{[holder.txid for holder in conflicting]})",
                    reason="wait-die")
            # Older than every conflicting holder: wait politely.
            self.waits += 1
            waiter = _Waiter(ctx, mode, self.env.event())
            self._queue.append(waiter)
            yield waiter.event
            if ctx.status is not TransactionStatus.ACTIVE:
                # The transaction ended while this request waited — its
                # body died on a crashed silo and the runner aborted it
                # before this grain enlisted — so nobody would ever
                # release a lock granted now.
                raise TransactionAborted(
                    f"txn {ctx.txid} ended while waiting on lock "
                    f"{self.name!r}", reason="failure")
            # Re-check conflicts after being woken (loop).

    def release(self, ctx: TransactionContext) -> None:
        """Release the lock held by ``ctx`` and wake eligible waiters."""
        self._holders.pop(ctx.txid, None)
        if self._queue:
            self._wake()

    def _wake(self) -> None:
        """Re-apply wait-die to every waiter after the holders changed,
        in FIFO order: wake one whose request is now compatible (it
        re-checks conflicts itself), keep one that is still older than
        every conflicting holder, fail the rest.

        A grant or a release can leave a waiter behind a holder older
        than itself — a shared grant ignores queued exclusive waiters,
        and an upgrade conflicts with the holders it queued beside.
        Kept waiting, two such upgraders would wait for each other
        forever.
        """
        still_waiting: collections.deque[_Waiter] = collections.deque()
        while self._queue:
            waiter = self._queue.popleft()
            ctx = waiter.ctx
            conflicting, dies = self._conflicts(ctx, waiter.mode)
            if not conflicting:
                waiter.event.succeed()
            elif dies:
                self.deaths += 1
                waiter.event.fail(TransactionAborted(
                    f"txn {ctx.txid} died waiting on lock {self.name!r} "
                    f"(wait-die, held by "
                    f"{[holder.txid for holder in conflicting]})",
                    reason="wait-die"))
            else:
                still_waiting.append(waiter)
        self._queue = still_waiting

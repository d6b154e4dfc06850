"""The transaction coordinator: execution, 2PC and retry."""

from __future__ import annotations

import dataclasses
import typing

from repro.actors.errors import SiloUnavailable
from repro.runtime.events import PENDING, Event
from repro.txn.context import TransactionContext, TransactionStatus
from repro.txn.errors import TransactionAborted
from repro.txn.participant import (
    collect_votes,
    install_staged,
    log_committed,
    log_prepared,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.cluster import Cluster


#: Retries after the first attempt before a transaction aborts.
MAX_RETRIES = 8
#: Backoff before retry ``n``: ``BACKOFF_BASE * BACKOFF_FACTOR ** (n - 1)``
#: stretched by up to ``BACKOFF_JITTER`` of itself.
BACKOFF_BASE = 0.002
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.5


@dataclasses.dataclass
class TxnStats:
    started: int = 0
    committed: int = 0
    aborted: int = 0
    retries: int = 0
    wait_die_deaths: int = 0
    #: Retries caused by a silo crash/stop mid-transaction (membership
    #: churn), as opposed to concurrency-control aborts.
    silo_retries: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class TransactionRunner:
    """Runs application functions as distributed ACID transactions.

    ``run(body)`` executes ``body(ctx)`` — which issues grain calls that
    carry ``ctx`` — then drives two-phase commit over every participant
    the transaction touched.  On :class:`TransactionAborted` the attempt
    is rolled back and retried with exponential backoff, *keeping the
    original wait-die priority* so old transactions eventually win.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        #: The cluster's deployment: its ``enable_locking`` and
        #: ``enable_two_phase_commit`` ablation switches and its costs.
        self.config = cluster.config
        self.costs = cluster.costs
        self.stats = TxnStats()
        self._rng = cluster.env.rng("txn-runner")

    # ------------------------------------------------------------------
    def run(self, body: typing.Callable[[TransactionContext], Event]
            ) -> "Transaction":
        """Execute ``body`` transactionally with retry; returns the
        :class:`Transaction` event to wait on.

        ``body(ctx)`` must return an event (typically a grain-call
        promise); its value becomes the transaction's result.  The
        first attempt starts at once.
        """
        return Transaction(self, body)

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        base = BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1)
        jitter = 1.0 + BACKOFF_JITTER * self._rng.random()
        return base * jitter


class Transaction(Event):
    """One transaction, from its first attempt to its outcome: what
    :meth:`TransactionRunner.run` returns and the caller waits on.

    No process drives it.  Kernel callbacks advance it: the body's
    promise calls :meth:`_executed`, the prepare round ends in
    :meth:`_prepared`, the coordinator's log force in :meth:`_decided`,
    the commit round in :meth:`_committed`, and a backoff starts the
    next :meth:`_attempt`.  Each wait is one timeline entry with the
    delay the protocol models.

    A round — hop out, a step on arrival, one log force for every
    participant with something to make durable, a step, in the prepare
    round a hop back — is a handful of pooled timeline entries whatever
    the participant count: named callbacks, each making one call into
    :mod:`repro.txn.participant`, which visits the participants in
    enlistment order at the times a process each would produce.

    It settles *synchronously*: :meth:`_settle` runs the waiters'
    callbacks inline, in the kernel step that decided the outcome,
    rather than through the same-tick bucket — which would cost one
    more timeline entry per transaction and resume the caller one
    step later.  A failure that no callback defuses is scheduled like
    a failed process, so the kernel surfaces it as
    :class:`~repro.runtime.SimulationError`.
    """

    #: ``enlisted``: the current round's participants; ``voters``: the
    #: prepare round's yes-voters; ``replies``: prepare replies due.
    __slots__ = ("runner", "body", "ctx", "result", "enlisted", "voters",
                 "replies")

    def __init__(self, runner: TransactionRunner,
                 body: typing.Callable[[TransactionContext], Event]
                 ) -> None:
        # Event's fields, set here: ``Event.__init__`` would add a frame.
        self.env = runner.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.runner = runner
        self.body = body
        self.ctx: TransactionContext | None = None
        self.result: object = None
        self._attempt(None)

    def _attempt(self, _event: Event | None) -> None:
        """Start an attempt under a fresh context that keeps the first
        attempt's wait-die priority."""
        runner = self.runner
        previous = self.ctx
        self.ctx = ctx = TransactionContext(
            self.env.now,
            inherit_priority=None if previous is None else previous.priority,
            locking=runner.config.enable_locking)
        if previous is not None:
            ctx.attempt = previous.attempt + 1
        runner.stats.started += 1
        try:
            promise = self.body(ctx)
        except BaseException as exc:
            self._failed(exc)
            return
        if not isinstance(promise, Event):
            self._failed(RuntimeError(
                f"transaction body returned {promise!r}, "
                f"which is not an Event"))
            return
        callbacks = promise.callbacks
        if callbacks is not None:
            callbacks.append(self._executed)
            return
        # Already processed: resume at the next scheduler step through
        # a pooled proxy, as ``Process._resume`` does.
        env = self.env
        immediate = env.acquire_event()
        immediate._ok = promise._ok
        immediate._value = promise._value
        if not promise._ok:
            promise._defused = True
            immediate._defused = True
        immediate.callbacks.append(self._executed)
        env.schedule(immediate)

    def _executed(self, event: Event) -> None:
        """The body's promise fired: prepare (or, under the no-2PC
        ablation, commit at once) — or roll back."""
        if not event._ok:
            event._defused = True
            self._failed(event._value)
            return
        self.result = event._value
        if not self.runner.config.enable_two_phase_commit:
            # The no-2PC ablation: a one-shot commit, no prepare round.
            self._decided(None)
            return
        ctx = self.ctx
        ctx.status = TransactionStatus.PREPARING
        # With nobody enlisted, every vote is trivially in.
        self.enlisted = self.voters = list(ctx.participants.values())
        if self.enlisted:
            self.env.call_after(self.runner.costs.control_latency,
                                self._prepare_arrived)
        else:
            self.env.call_after(0.0, self._prepared)

    def _prepare_arrived(self, _event: Event) -> None:
        """The prepare request reached every participant: the yes-voters
        force their prepare record, the vetoers answer at once."""
        self.voters = voters = collect_votes(self.enlisted, self.ctx)
        call_after = self.env.call_after
        costs = self.runner.costs
        self.replies = 0
        if voters:
            self.replies = 1
            call_after(costs.participant_log_latency, self._prepare_forced)
        if len(voters) < len(self.enlisted):
            self.replies += 1
            call_after(costs.control_latency, self._prepare_replied)

    def _prepare_forced(self, _event: Event) -> None:
        """The yes-voters' prepare records are durable: they reply."""
        log_prepared(self.voters, self.ctx)
        self.env.call_after(self.runner.costs.control_latency,
                            self._prepare_replied)

    def _prepare_replied(self, _event: Event) -> None:
        self.replies -= 1
        if not self.replies:
            self.env.call_after(0.0, self._prepared)

    def _prepared(self, _event: Event) -> None:
        """Every vote is in: record the decision, or roll back."""
        if len(self.voters) == len(self.enlisted):
            # The coordinator durably records the commit decision.
            self.env.call_after(self.runner.costs.coordinator_log_latency,
                                self._decided)
            return
        self._abort()
        runner = self.runner
        attempt = self.ctx.attempt
        if attempt > MAX_RETRIES:
            runner.stats.aborted += 1
            self._settle(False, TransactionAborted(
                f"txn {self.ctx.txid} exceeded "
                f"{MAX_RETRIES} retries", reason="veto"))
            return
        runner.stats.retries += 1
        self.env.call_after(runner._backoff(attempt), self._attempt)

    def _decided(self, _event: Event | None) -> None:
        """The commit decision is durable: run the commit round."""
        self.enlisted = list(self.ctx.participants.values())
        if self.enlisted:
            self.env.call_after(self.runner.costs.control_latency,
                                self._commit_arrived)
        else:
            self.env.call_after(0.0, self._committed)

    def _commit_arrived(self, _event: Event) -> None:
        """The decision reached every participant: install, then force
        the commit record."""
        install_staged(self.enlisted, self.ctx)
        self.env.call_after(self.runner.costs.participant_log_latency,
                            self._commit_forced)

    def _commit_forced(self, _event: Event) -> None:
        """The commit records are durable: the locks go."""
        log_committed(self.enlisted, self.ctx)
        self.env.call_after(0.0, self._committed)

    def _committed(self, _event: Event) -> None:
        self.ctx.status = TransactionStatus.COMMITTED
        self.runner.stats.committed += 1
        self._settle(True, self.result)

    def _failed(self, exc: BaseException) -> None:
        """The attempt failed: roll back, then retry a transactional
        abort or a silo failure, or settle with ``exc``."""
        self._abort()
        runner = self.runner
        stats = runner.stats
        if isinstance(exc, TransactionAborted) and exc.reason == "wait-die":
            stats.wait_die_deaths += 1
        attempt = self.ctx.attempt
        if (not isinstance(exc, (TransactionAborted, SiloUnavailable))
                or attempt > MAX_RETRIES):
            # A non-transactional failure is never retried.
            stats.aborted += 1
            self._settle(False, exc)
            return
        stats.retries += 1
        if isinstance(exc, SiloUnavailable):
            # A participant's silo crashed or stopped under the
            # transaction: the next attempt routes to the grain's new
            # owner.  This is what makes the transactional app ride
            # through membership churn (at the cost of retries the
            # stats surface).
            stats.silo_retries += 1
        self.env.call_after(runner._backoff(attempt), self._attempt)

    def _abort(self) -> None:
        ctx = self.ctx
        ctx.status = TransactionStatus.ABORTED
        for participant in ctx.participants.values():
            participant.abort(ctx)

    def _settle(self, ok: bool, value: object) -> None:
        """Fire now: run the waiters' callbacks inline."""
        self._ok = ok
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        if not ok and not self._defused:
            # Nobody handled the failure: let the kernel raise it.
            self.env.schedule(self)

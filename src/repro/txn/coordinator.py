"""The transaction coordinator: execution, 2PC and retry."""

from __future__ import annotations

import dataclasses
import typing
from functools import partial
from operator import methodcaller

from repro.actors.errors import SiloUnavailable
from repro.txn.context import TransactionContext, TransactionStatus
from repro.txn.errors import TransactionAborted

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.cluster import Cluster
    from repro.runtime import Event
    from repro.txn.participant import TransactionParticipant


@dataclasses.dataclass
class TxnConfig:
    """Cost model and retry policy for distributed transactions."""

    #: One-way latency of a coordinator <-> participant control message.
    control_latency: float = 0.0003
    #: Durable write of the coordinator's commit decision.
    coordinator_log_latency: float = 0.0005
    #: CPU charged on the coordinator side per 2PC round.
    coordinator_cpu: float = 0.00005
    max_retries: int = 8
    backoff_base: float = 0.002
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    #: Ablation switches (bench A1): disable pieces of the protocol.
    enable_locking: bool = True
    enable_two_phase_commit: bool = True


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

    def __init__(self, cluster: "Cluster",
                 config: TxnConfig | None = None) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or TxnConfig()
        self.stats = TxnStats()
        self._rng = cluster.env.rng("txn-runner")

    # ------------------------------------------------------------------
    def run(self, body: typing.Callable[[TransactionContext], "Event"]):
        """Process helper: execute ``body`` transactionally with retry.

        ``body(ctx)`` must return an event (typically a grain-call
        promise); its value becomes the transaction's result.
        """
        priority: tuple[float, int] | None = None
        attempt = 0
        while True:
            attempt += 1
            ctx = TransactionContext(
                self.env.now, inherit_priority=priority,
                locking=self.config.enable_locking)
            priority = ctx.priority
            ctx.attempt = attempt
            self.stats.started += 1
            try:
                result = yield body(ctx)
            except TransactionAborted as abort:
                yield from self._abort_all(ctx)
                if abort.reason == "wait-die":
                    self.stats.wait_die_deaths += 1
                if attempt > self.config.max_retries:
                    self.stats.aborted += 1
                    raise
                self.stats.retries += 1
                yield self.env.timeout(self._backoff(attempt))
                continue
            except SiloUnavailable:
                # A participant's silo crashed or stopped under the
                # transaction: roll back and retry — the next attempt
                # routes to the grain's new owner.  This is what makes
                # the transactional app ride through membership churn
                # (at the cost of retries the stats surface).
                yield from self._abort_all(ctx)
                if attempt > self.config.max_retries:
                    self.stats.aborted += 1
                    raise
                self.stats.retries += 1
                self.stats.silo_retries += 1
                yield self.env.timeout(self._backoff(attempt))
                continue
            except BaseException:
                # Non-transactional failure: roll back, do not retry.
                yield from self._abort_all(ctx)
                self.stats.aborted += 1
                raise
            committed = yield from self._commit(ctx)
            if committed:
                self.stats.committed += 1
                return result
            if attempt > self.config.max_retries:
                self.stats.aborted += 1
                raise TransactionAborted(
                    f"txn {ctx.txid} exceeded {self.config.max_retries} "
                    f"retries", reason="veto")
            self.stats.retries += 1
            yield self.env.timeout(self._backoff(attempt))

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        base = self.config.backoff_base * (
            self.config.backoff_factor ** (attempt - 1))
        jitter = 1.0 + self.config.backoff_jitter * self._rng.random()
        return base * jitter

    def _commit(self, ctx: TransactionContext):
        """Process helper: run 2PC; returns True on commit."""
        participants = list(ctx.participants.values())
        if self.config.enable_two_phase_commit:
            ctx.status = TransactionStatus.PREPARING
            # Prepare phase: control round-trip + log force, in parallel.
            votes = yield self._round(
                participants, methodcaller("vote", ctx),
                methodcaller("mark_prepared", ctx), reply_hop=True)
            if not all(votes):
                yield from self._abort_all(ctx)
                return False
            # Coordinator durably records the commit decision.
            yield self.env.timeout(self.config.coordinator_log_latency)
        # Commit phase, in parallel (the whole protocol under the
        # no-2PC ablation: a one-shot commit without a prepare round).
        yield self._round(
            participants, methodcaller("install", ctx),
            methodcaller("mark_committed", ctx), reply_hop=False)
        ctx.status = TransactionStatus.COMMITTED
        return True

    def _round(self, participants: "list[TransactionParticipant]",
               arrive: typing.Callable[["TransactionParticipant"], bool],
               logged: typing.Callable[["TransactionParticipant"], None],
               reply_hop: bool) -> "Event":
        """One parallel 2PC fan-out; returns the event that fires, with
        the list of ``arrive`` answers, once every participant is done.

        Each participant is modelled as: a control hop out, its
        ``arrive(participant)`` step, a log force of its own
        ``log_write_latency`` when that step answered True (a veto has
        nothing to make durable), its ``logged(participant)`` step,
        then a hop back if ``reply_hop``.  Nothing in that suspends,
        so the round is a handful of pooled timeline entries — one per
        hop and per *distinct* log latency, whatever the number of
        participants — rather than a process each.  Every participant
        still sees the exact times its own process would have produced,
        and at each of them participants run in enlistment order.
        """
        env = self.env
        call_after = env.call_after
        hop = self.config.control_latency
        done = env.event()
        if not participants:
            return done.succeed([])
        answers: list = []
        pending = 0

        def arrived(_event) -> None:
            nonlocal pending
            forces: dict[float, list] = {}
            for participant in participants:
                answer = arrive(participant)
                answers.append(answer)
                if answer:
                    forces.setdefault(participant.log_write_latency,
                                      []).append(participant)
            pending = len(forces)
            for latency, group in forces.items():
                call_after(latency, partial(forced, group))
            if not all(answers):
                pending += 1
                reply()  # the vetoers, at once

        def forced(group: list, _event) -> None:
            for participant in group:
                logged(participant)
            reply()

        def reply() -> None:
            if reply_hop:
                call_after(hop, finished)
            else:
                finished(None)

        def finished(_event) -> None:
            nonlocal pending
            pending -= 1
            if not pending:
                done.succeed(answers)

        call_after(hop, arrived)
        return done

    def _abort_all(self, ctx: TransactionContext):
        ctx.status = TransactionStatus.ABORTED
        for participant in ctx.participants.values():
            participant.abort(ctx)
        return
        yield  # pragma: no cover - generator marker

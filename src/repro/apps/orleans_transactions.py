"""Orleans Transactions: ACID distributed transactions over actors.

"We use Orleans Transactions to implement ACID transactional guarantees
to ensure all-or-nothing atomicity and concurrency control.  However,
this comes at a considerable overhead." (paper §III)

The overhead here is mechanical, not scripted: lock waits and wait-die
retries on hot products, prepare/commit rounds with durable log forces
at every participant, and a coordinator log write per transaction.
"""

from __future__ import annotations

import typing

from repro.actors import GrainCallError
from repro.apps.base import ActorApp, AppConfig, failed, from_reply
from repro.apps.grains_txn import TXN_GRAINS
from repro.marketplace.constants import Topics
from repro.txn import TransactionAborted, TransactionRunner

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class OrleansTransactionsApp(ActorApp):
    """ACID Online Marketplace on transactional actors."""

    name = "orleans-transactions"
    grains = TXN_GRAINS
    paged_attr = "state"

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        super().__init__(env, config)
        self.runner = TransactionRunner(self.cluster)

    # ------------------------------------------------------------------
    def _subscribe(self) -> None:
        # Replica maintenance is still event-driven (the platform has no
        # replication primitive); seller entries are transactional, so
        # order events feed no state here — they remain observable for
        # the event-ordering audit.
        self.cluster.broker.subscribe(
            Topics.PRICE_UPDATES, "cart-replica-service",
            self._on_price_event)
        self.cluster.broker.subscribe(
            Topics.ORDER_EVENTS, "notification-service", lambda e: None)

    def _install(self, service: str, key: str, state: dict) -> None:
        grain = self.cluster.grain_instance(self._grain(service, key))
        grain.participant.write_committed(state)

    @staticmethod
    def _live_state(grain):
        participant = grain._participant
        return None if participant is None \
            else participant.committed_state

    # ------------------------------------------------------------------
    # transport: every request operation is a distributed transaction
    # ------------------------------------------------------------------
    def _request(self, operation: str, service: str, key: str, **fields):
        ref = self._grain(service, key)
        try:
            reply = yield self.runner.run(
                lambda ctx: ref.call(operation, txn=ctx, **fields))
        except TransactionAborted as abort:
            return failed(operation, reason=f"aborted:{abort.reason}")
        except GrainCallError:
            return failed(operation, reason="unreachable")
        return from_reply(operation, reply)

    def _gather(self, refs: list, method: str, *args):
        """Walk the grains one at a time, on committed state."""
        replies = []
        for ref in refs:
            try:
                replies.append((yield ref.call(method, *args)))
            except GrainCallError:
                replies.append(None)
        return replies

    def _deliver(self, ref, package: dict):
        """One transaction per package delivery.

        A single transaction spanning every shipment partition would
        S-lock the whole shipment service for the duration of the batch
        and serialise all checkouts behind it; scoping each package's
        delivery (shipment + order + customer + seller entries) to its
        own ACID transaction keeps the all-or-nothing property that
        matters — a package delivery and its downstream updates — while
        letting the batch make progress under load.
        """
        try:
            return (yield self.runner.run(
                lambda ctx: ref.call("mark_delivered", package["order_id"],
                                     package["package_id"], txn=ctx)))
        except (GrainCallError, TransactionAborted):
            return None

    def runtime_stats(self) -> dict:
        return self._cluster_stats(
            transactions=self.runner.stats.as_dict())

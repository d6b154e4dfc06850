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

from repro.apps.base import ActorApp, AppConfig, failed, from_reply, ok, \
    rejected
from repro.apps.grains_txn import TXN_GRAINS
from repro.marketplace.constants import Topics
from repro.txn import TransactionAborted, TransactionRunner, TxnConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class OrleansTransactionsApp(ActorApp):
    """ACID Online Marketplace on transactional actors."""

    name = "orleans-transactions"
    grains = TXN_GRAINS
    paged_attr = "state"

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None,
                 txn_config: TxnConfig | None = None) -> None:
        super().__init__(env, config)
        self.runner = TransactionRunner(self.cluster, txn_config)

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

    def _on_price_event(self, envelope) -> None:
        payload = envelope.payload
        key = payload["key"]
        if payload["kind"] == "price_updated":
            self._grain("replica", key).tell(
                "apply_update", payload["price_cents"], payload["version"])
        elif payload["kind"] == "product_deleted":
            self._grain("replica", key).tell(
                "apply_delete", payload["version"])

    def _install(self, service: str, key: str, state: dict) -> None:
        grain = self.cluster.grain_instance(self._grain(service, key))
        grain.participant.write_committed(state)

    @staticmethod
    def _live_state(grain):
        participant = grain._participant
        return None if participant is None \
            else participant.committed_state

    # ------------------------------------------------------------------
    # workload operations (each one a distributed transaction)
    # ------------------------------------------------------------------
    def _transact(self, operation: str, body):
        """Run ``body(ctx)`` transactionally, mapping failures."""
        try:
            result = yield from self.runner.run(body)
        except TransactionAborted as abort:
            return failed(operation, reason=f"aborted:{abort.reason}")
        except Exception:
            return failed(operation, reason="unreachable")
        return result

    def add_item(self, customer_id: int, seller_id: int, product_id: int,
                 quantity: int, voucher_cents: int = 0):
        cart = self._grain("cart", str(customer_id))

        def body(ctx):
            return cart.call("add_item", seller_id, product_id, quantity,
                             voucher_cents, txn=ctx)

        outcome = yield from self._transact("add_item", body)
        if isinstance(outcome, dict):
            if not outcome["added"]:
                return rejected("add_item", reason=outcome["reason"])
            return ok("add_item", price_version=outcome["price_version"])
        return outcome

    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        cart = self._grain("cart", str(customer_id))

        def body(ctx):
            return cart.call("checkout", order_id, payment_method,
                             txn=ctx)

        outcome = yield from self._transact("checkout", body)
        if isinstance(outcome, dict):
            return from_reply("checkout", outcome)
        return outcome

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        """Idempotent external-order ingestion: dedup registration and
        order creation commit in one distributed transaction."""
        from repro.marketplace.logic import ingestion as ingestion_logic
        shard = self._grain("ingestion",
                            ingestion_logic.shard_key(platform, shop_id))

        def body(ctx):
            return shard.call("submit", platform, shop_id, ext_order_no,
                              customer_id, items, txn=ctx)

        outcome = yield from self._transact("submit_external", body)
        if isinstance(outcome, dict):
            return from_reply("submit_external", outcome)
        return outcome

    def request_return(self, customer_id: int, order_id: str):
        """Return/refund compensation saga as one ACID transaction."""
        orders = self._grain("order", str(customer_id))

        def body(ctx):
            return orders.call("process_return", order_id, txn=ctx)

        outcome = yield from self._transact("request_return", body)
        if isinstance(outcome, dict):
            return from_reply("request_return", outcome)
        return outcome

    def update_price(self, seller_id: int, product_id: int,
                     price_cents: int):
        product = self._grain("product", f"{seller_id}/{product_id}")

        def body(ctx):
            return product.call("update_price", price_cents, txn=ctx)

        outcome = yield from self._transact("update_price", body)
        if isinstance(outcome, dict):
            if not outcome["applied"]:
                return rejected("update_price", reason="inactive")
            return ok("update_price", version=outcome["version"])
        return outcome

    def delete_product(self, seller_id: int, product_id: int):
        product = self._grain("product", f"{seller_id}/{product_id}")

        def body(ctx):
            return product.call("delete", txn=ctx)

        outcome = yield from self._transact("delete_product", body)
        if isinstance(outcome, dict):
            if not outcome["applied"]:
                return rejected("delete_product", reason="inactive")
            return ok("delete_product", version=outcome["version"])
        return outcome

    def update_delivery(self):
        """Query phase on committed state, then one transaction per
        package delivery.

        A single transaction spanning every shipment partition would
        S-lock the whole shipment service for the duration of the batch
        and serialise all checkouts behind it; scoping each package's
        delivery (shipment + order + customer + seller entries) to its
        own ACID transaction keeps the all-or-nothing property that
        matters — a package delivery and its downstream updates — while
        letting the batch make progress under load.
        """
        partitions = [self._grain("shipment", f"part-{index}")
                      for index in range(self.shipment_partitions)]
        earliest: dict[int, float] = {}
        for ref in partitions:
            try:
                pairs = yield ref.call("undelivered_seller_times")
            except Exception:
                continue
            for seller_id, when in pairs:
                if seller_id not in earliest or when < earliest[seller_id]:
                    earliest[seller_id] = when
        chosen = [seller for seller, _ in
                  sorted(earliest.items(),
                         key=lambda item: (item[1], item[0]))[:10]]
        delivered = 0
        for seller_id in chosen:
            best, best_ref = None, None
            for ref in partitions:
                try:
                    package = yield ref.call("oldest_package", seller_id)
                except Exception:
                    continue
                if package is not None and (
                        best is None
                        or package["shipped_at"] < best["shipped_at"]):
                    best, best_ref = package, ref
            if best is None:
                continue

            def body(ctx, ref=best_ref, pkg=best):
                return ref.call("mark_delivered", pkg["order_id"],
                                pkg["package_id"], txn=ctx)

            try:
                outcome = yield from self.runner.run(body)
            except Exception:
                continue
            if outcome is not None:
                delivered += 1
        return ok("update_delivery", sellers=len(chosen),
                  packages_delivered=delivered)

    def runtime_stats(self) -> dict:
        return self._cluster_stats(
            transactions=self.runner.stats.as_dict())

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
import zlib

from repro.actors import Cluster, ClusterConfig
from repro.apps.base import AppConfig, MarketplaceApp, failed, ok, rejected
from repro.apps.grains_txn import TXN_GRAINS, PaymentDeclined
from repro.broker import Broker, DeliveryMode
from repro.marketplace.constants import Topics
from repro.txn import TransactionAborted, TransactionRunner, TxnConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class OrleansTransactionsApp(MarketplaceApp):
    """ACID Online Marketplace on transactional actors."""

    name = "orleans-transactions"
    delivery_mode = DeliveryMode.UNORDERED
    shipment_partitions = 4

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None,
                 txn_config: TxnConfig | None = None) -> None:
        super().__init__(env, config)
        broker = Broker(env, default_mode=self.delivery_mode)
        self.cluster = Cluster(env, ClusterConfig(
            silos=self.config.silos,
            cores_per_silo=self.config.cores_per_silo,
            drop_probability=self.config.drop_probability,
            activation_limit=self.config.activation_limit),
            broker=broker)
        self.cluster.app = self
        self.scaling_host = self.cluster
        self.runner = TransactionRunner(self.cluster, txn_config)
        self._grains = dict(TXN_GRAINS)
        for grain_type in self._grains.values():
            self.cluster.register_grain(grain_type)
        self._subscribe()

    # ------------------------------------------------------------------
    def _grain(self, service: str, key: str):
        return self.cluster.grain_ref(self._grains[service], key)

    def shipment_partition(self, order_id: str) -> str:
        digest = zlib.crc32(order_id.encode())
        return f"part-{digest % self.shipment_partitions}"

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

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _ingest_product(self, product) -> None:
        data = product.as_dict()
        self._install("product", product.key, data)
        self._install("replica", product.key, {
            "price_cents": data["price_cents"],
            "version": data["version"], "active": data["active"]})

    def _ingest_stock(self, stock_item) -> None:
        self._install("stock", stock_item.key, stock_item.as_dict())

    def _ingest_seller(self, seller) -> None:
        from repro.marketplace.logic import seller as seller_logic
        self._install("seller", str(seller.seller_id),
                      seller_logic.new_seller(
                          seller.seller_id, seller.name, seller.city))

    def _ingest_customer(self, customer) -> None:
        from repro.marketplace.logic import customer as customer_logic
        self._install("customer", str(customer.customer_id),
                      customer_logic.new_customer(
                          customer.customer_id, customer.name,
                          customer.city))

    def _install(self, service: str, key: str, state: dict) -> None:
        grain = self.cluster.grain_instance(self._grain(service, key))
        grain.participant.write_committed(state)

    # ------------------------------------------------------------------
    # workload operations (each one a distributed transaction)
    # ------------------------------------------------------------------
    def _transact(self, operation: str, body):
        """Run ``body(ctx)`` transactionally, mapping failures."""
        try:
            result = yield from self.runner.run(body)
        except PaymentDeclined as declined:
            return failed(operation, reason="payment",
                          order_id=str(declined))
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
            status = outcome.pop("status")
            if status == "ok":
                return ok("checkout", **outcome)
            if status == "failed":
                return failed("checkout", **outcome)
            return rejected("checkout", **outcome)
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
            status = outcome.pop("status")
            if status == "ok":
                return ok("submit_external", **outcome)
            return rejected("submit_external", **outcome)
        return outcome

    def request_return(self, customer_id: int, order_id: str):
        """Return/refund compensation saga as one ACID transaction."""
        orders = self._grain("order", str(customer_id))

        def body(ctx):
            return orders.call("process_return", order_id, txn=ctx)

        outcome = yield from self._transact("request_return", body)
        if isinstance(outcome, dict):
            status = outcome.pop("status")
            if status == "ok":
                return ok("request_return", **outcome)
            return rejected("request_return", **outcome)
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
            except TransactionAborted:
                continue
            except Exception:
                continue
            if outcome is not None:
                delivered += 1
        return ok("update_delivery", sellers=len(chosen),
                  packages_delivered=delivered)

    def dashboard(self, seller_id: int):
        """Two separate committed reads — the platform cannot give the
        dashboard a shared snapshot (paper §III)."""
        seller = self._grain("seller", str(seller_id))
        try:
            amount = yield seller.call("dashboard_amount")
            entries = yield seller.call("dashboard_entries")
        except Exception:
            return failed("dashboard", reason="unreachable")
        return ok("dashboard", amount_cents=amount, entries=entries,
                  entries_total_cents=sum(entry["amount_cents"]
                                          for entry in entries))

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def audit_views(self) -> dict:
        views: dict[str, dict] = {
            "products": {}, "replicas": {}, "stock": {}, "orders": {},
            "payments": {}, "shipments": {}, "customers": {},
            "sellers": {}, "carts": {}, "ingestion": {},
        }
        service_to_view = {
            "product": "products", "replica": "replicas",
            "stock": "stock", "order": "orders", "payment": "payments",
            "shipment": "shipments", "customer": "customers",
            "seller": "sellers", "cart": "carts",
            "ingestion": "ingestion",
        }
        type_to_service = {grain_type.__name__: service
                           for service, grain_type in self._grains.items()}
        for silo in self.cluster.silos:
            for (type_name, key), activation in silo.activations.items():
                service = type_to_service.get(type_name)
                if service is None:
                    continue
                grain = activation.grain
                if grain._participant is not None \
                        and grain.participant.committed_state:
                    views[service_to_view[service]][key] = \
                        grain.participant.committed_state
        # Grains paged out under the activation budget are still part
        # of the logical state the audits check.
        for (type_name, key), paged in self.cluster.paged_states().items():
            service = type_to_service.get(type_name)
            if service is None or not paged:
                continue
            state = paged.get("state")
            if state:
                views[service_to_view[service]].setdefault(key, state)
        views["event_log"] = [
            {"subscriber": name, "time": when,
             "order_id": envelope.key, "kind": envelope.payload["kind"]}
            for name, when, envelope in
            self.cluster.broker.deliveries(Topics.ORDER_EVENTS)]
        return views

    def runtime_stats(self) -> dict:
        return {
            "messages_sent": self.cluster.messages_sent,
            "messages_dropped": self.cluster.messages_dropped,
            "activations": self.cluster.total_activations,
            "transactions": self.runner.stats.as_dict(),
            "membership": self.cluster.membership_stats(),
            "utilisation": self.cluster.utilisation(),
            "working_set": self.cluster.working_set_stats(),
        }

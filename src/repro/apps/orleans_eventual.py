"""Orleans Eventual: virtual actors with eventual consistency.

The paper's baseline: "it does not ensure all actions are complete as
part of a business transaction but exhibits the highest throughput."
Events flow over unordered topics, side effects are fire-and-forget,
and nothing coordinates concurrent checkouts beyond per-grain turn
concurrency.
"""

from __future__ import annotations

import typing

from repro.actors import Cluster, ClusterConfig
from repro.apps import grains_eventual as grains
from repro.apps.base import AppConfig, MarketplaceApp, failed, ok, rejected
from repro.broker import Broker, DeliveryMode
from repro.marketplace.constants import Topics

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class OrleansEventualApp(MarketplaceApp):
    """Eventually-consistent Online Marketplace on virtual actors."""

    name = "orleans-eventual"
    delivery_mode = DeliveryMode.UNORDERED
    shipment_partitions = 4

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        super().__init__(env, config)
        # In the eventual architecture, replica propagation delay IS the
        # broker delivery latency — tie it to the replication_lag knob
        # so the replication ablation sweeps both stacks comparably.
        broker = Broker(env, default_mode=self.delivery_mode,
                        base_latency=self.config.replication_lag,
                        jitter=3 * self.config.replication_lag)
        self.cluster = Cluster(env, ClusterConfig(
            silos=self.config.silos,
            cores_per_silo=self.config.cores_per_silo,
            drop_probability=self.config.drop_probability,
            activation_limit=self.config.activation_limit),
            broker=broker)
        self.cluster.app = self
        self.scaling_host = self.cluster
        self._grains = dict(grains.EVENTUAL_GRAINS)
        for grain_type in self._grains.values():
            self.cluster.register_grain(grain_type)
        self._subscribe()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _grain(self, service: str, key: str):
        return self.cluster.grain_ref(self._grains[service], key)

    def shipment_partition(self, order_id: str) -> str:
        import zlib
        digest = zlib.crc32(order_id.encode())
        return f"part-{digest % self.shipment_partitions}"

    def _subscribe(self) -> None:
        broker = self.cluster.broker
        broker.subscribe(Topics.PRICE_UPDATES, "cart-replica-service",
                         self._on_price_event)
        broker.subscribe(Topics.ORDER_EVENTS, "seller-service",
                         self._on_order_event)

    def _on_price_event(self, envelope) -> None:
        """Route product events to the cart-side replica and stock."""
        payload = envelope.payload
        key = payload["key"]
        if payload["kind"] == "price_updated":
            self._grain("replica", key).tell(
                "apply_update", payload["price_cents"], payload["version"])
        elif payload["kind"] == "product_deleted":
            self._grain("replica", key).tell(
                "apply_delete", payload["version"])
            self._grain("stock", key).tell(
                "deactivate", payload["version"])

    def _on_order_event(self, envelope) -> None:
        """Route order lifecycle events to the affected seller grains."""
        payload = envelope.payload
        for seller_id in payload.get("sellers", ()):
            self._grain("seller", str(seller_id)).tell(
                "apply_order_event", payload)

    # ------------------------------------------------------------------
    # ingestion (zero simulated latency; happens before the run)
    # ------------------------------------------------------------------
    def _ingest_product(self, product) -> None:
        data = product.as_dict()
        self._install("product", product.key, {"data": data})
        self._install("replica", product.key, {"data": {
            "price_cents": data["price_cents"],
            "version": data["version"], "active": data["active"]}})

    def _ingest_stock(self, stock_item) -> None:
        self._install("stock", stock_item.key,
                      {"data": stock_item.as_dict()})

    def _ingest_seller(self, seller) -> None:
        from repro.marketplace.logic import seller as seller_logic
        self._install("seller", str(seller.seller_id), {
            "data": seller_logic.new_seller(
                seller.seller_id, seller.name, seller.city)})

    def _ingest_customer(self, customer) -> None:
        from repro.marketplace.logic import customer as customer_logic
        self._install("customer", str(customer.customer_id), {
            "data": customer_logic.new_customer(
                customer.customer_id, customer.name, customer.city)})

    def _install(self, service: str, key: str,
                 attrs: dict[str, object]) -> None:
        grain = self.cluster.grain_instance(self._grain(service, key))
        for attr, value in attrs.items():
            setattr(grain, attr, value)

    # ------------------------------------------------------------------
    # workload operations
    # ------------------------------------------------------------------
    def add_item(self, customer_id: int, seller_id: int, product_id: int,
                 quantity: int, voucher_cents: int = 0):
        cart = self._grain("cart", str(customer_id))
        try:
            result = yield cart.call("add_item", seller_id, product_id,
                                     quantity, voucher_cents)
        except Exception:
            return failed("add_item", reason="unreachable")
        if not result["added"]:
            return rejected("add_item", reason=result["reason"])
        return ok("add_item", price_version=result["price_version"])

    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        cart = self._grain("cart", str(customer_id))
        try:
            result = yield cart.call("checkout", order_id, payment_method)
        except Exception:
            return failed("checkout", reason="unreachable",
                          order_id=order_id)
        status = result.pop("status")
        if status == "ok":
            return ok("checkout", **result)
        if status == "rejected":
            return rejected("checkout", **result)
        return failed("checkout", **result)

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        """External-order ingestion through the dedup shard.

        The registry call itself is awaited, but the shard's downstream
        order creation is at-least-once — the duplicate-order anomaly
        lives inside the shard, not here."""
        from repro.marketplace.logic import ingestion as ingestion_logic
        shard = self._grain("ingestion",
                            ingestion_logic.shard_key(platform, shop_id))
        try:
            result = yield shard.call("submit", platform, shop_id,
                                      ext_order_no, customer_id, items)
        except Exception:
            return failed("submit_external", reason="unreachable")
        status = result.pop("status")
        if status == "ok":
            return ok("submit_external", **result)
        if status == "rejected":
            return rejected("submit_external", **result)
        return failed("submit_external", **result)

    def request_return(self, customer_id: int, order_id: str):
        """Return/refund compensation chain on the order grain."""
        orders = self._grain("order", str(customer_id))
        try:
            result = yield orders.call("process_return", order_id)
        except Exception:
            return failed("request_return", reason="unreachable",
                          order_id=order_id)
        status = result.pop("status")
        if status == "ok":
            return ok("request_return", **result)
        if status == "rejected":
            return rejected("request_return", **result)
        return failed("request_return", **result)

    def update_price(self, seller_id: int, product_id: int,
                     price_cents: int):
        product = self._grain("product", f"{seller_id}/{product_id}")
        try:
            result = yield product.call("update_price", price_cents)
        except Exception:
            return failed("update_price", reason="unreachable")
        if not result["applied"]:
            return rejected("update_price", reason="inactive")
        return ok("update_price", version=result["version"])

    def delete_product(self, seller_id: int, product_id: int):
        product = self._grain("product", f"{seller_id}/{product_id}")
        try:
            result = yield product.call("delete")
        except Exception:
            return failed("delete_product", reason="unreachable")
        if not result["applied"]:
            return rejected("delete_product", reason="inactive")
        return ok("delete_product", version=result["version"])

    def update_delivery(self):
        partitions = [self._grain("shipment", f"part-{index}")
                      for index in range(self.shipment_partitions)]
        per_partition = yield self.env.all_of([
            self.env.process(grains._safe_call(
                None, ref.call("undelivered_seller_times")))
            for ref in partitions])
        earliest: dict[int, float] = {}
        for pairs in per_partition.values():
            for seller_id, when in pairs or ():
                if seller_id not in earliest or when < earliest[seller_id]:
                    earliest[seller_id] = when
        chosen = [seller for seller, _ in
                  sorted(earliest.items(),
                         key=lambda item: (item[1], item[0]))[:10]]
        delivered = 0
        for seller_id in chosen:
            candidates = yield self.env.all_of([
                self.env.process(grains._safe_call(
                    None, ref.call("oldest_package", seller_id)))
                for ref in partitions])
            best, best_ref = None, None
            for ref, package in zip(partitions,
                                    candidates.values()):
                if package is not None and (
                        best is None
                        or package["shipped_at"] < best["shipped_at"]):
                    best, best_ref = package, ref
            if best is None:
                continue
            done = yield from grains._safe_call(None, best_ref.call(
                "mark_delivered", best["order_id"], best["package_id"]))
            if done:
                delivered += 1
        return ok("update_delivery", sellers=len(chosen),
                  packages_delivered=delivered)

    def dashboard(self, seller_id: int):
        """Two *separate* grain calls: updates may interleave between
        them, which is exactly the snapshot criterion's failure mode."""
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
        for silo in self.cluster.silos:
            for (type_name, key), activation in silo.activations.items():
                service = _TYPE_TO_SERVICE.get(type_name)
                if service is None:
                    continue
                data = getattr(activation.grain, "data", None)
                if data is not None:
                    views[service_to_view[service]][key] = data
        # Grains paged out under the activation budget are still part
        # of the logical state the audits check.
        for (type_name, key), paged in self.cluster.paged_states().items():
            service = _TYPE_TO_SERVICE.get(type_name)
            if service is None or not paged:
                continue
            data = paged.get("data")
            if data is not None:
                views[service_to_view[service]].setdefault(key, data)
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
            "membership": self.cluster.membership_stats(),
            "utilisation": self.cluster.utilisation(),
            "working_set": self.cluster.working_set_stats(),
        }


_TYPE_TO_SERVICE = {
    grain_type.__name__: service
    for service, grain_type in grains.EVENTUAL_GRAINS.items()
}

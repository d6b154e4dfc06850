"""Orleans Eventual: virtual actors with eventual consistency.

The paper's baseline: "it does not ensure all actions are complete as
part of a business transaction but exhibits the highest throughput."
Events flow over unordered topics, side effects are fire-and-forget,
and nothing coordinates concurrent checkouts beyond per-grain turn
concurrency.
"""

from __future__ import annotations

from repro.apps.base import ActorApp, failed, from_reply, ok, rejected
from repro.apps.grains_eventual import EVENTUAL_GRAINS, _safe_call
from repro.broker import Broker
from repro.marketplace.constants import Topics


class OrleansEventualApp(ActorApp):
    """Eventually-consistent Online Marketplace on virtual actors."""

    name = "orleans-eventual"
    grains = EVENTUAL_GRAINS

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _broker(self) -> Broker:
        # In the eventual architecture, replica propagation delay IS the
        # broker delivery latency — tie it to the replication_lag knob
        # so the replication ablation sweeps both stacks comparably.
        return Broker(self.env, default_mode=self.delivery_mode,
                      base_latency=self.config.replication_lag,
                      jitter=3 * self.config.replication_lag)

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

    def _install(self, service: str, key: str, state: dict) -> None:
        self.cluster.grain_instance(self._grain(service, key)).data = state

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
        return from_reply("checkout", result)

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
        return from_reply("submit_external", result)

    def request_return(self, customer_id: int, order_id: str):
        """Return/refund compensation chain on the order grain."""
        orders = self._grain("order", str(customer_id))
        try:
            result = yield orders.call("process_return", order_id)
        except Exception:
            return failed("request_return", reason="unreachable",
                          order_id=order_id)
        return from_reply("request_return", result)

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
            self.env.process(_safe_call(
                ref.call("undelivered_seller_times")))
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
                self.env.process(_safe_call(
                    ref.call("oldest_package", seller_id)))
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
            done = yield from _safe_call(best_ref.call(
                "mark_delivered", best["order_id"], best["package_id"]))
            if done:
                delivered += 1
        return ok("update_delivery", sellers=len(chosen),
                  packages_delivered=delivered)

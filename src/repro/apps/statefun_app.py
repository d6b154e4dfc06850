"""Apache Flink Statefun implementation of Online Marketplace.

"Statefun is a dataflow-based platform that provides exactly-once
processing.  This implementation shows lower scalability compared to
Orleans Eventual but outperforms Orleans Transactions by 2 times."
(paper §III)
"""

from __future__ import annotations

import itertools
import typing

from repro.apps import statefun_fns as fns
from repro.apps.base import (
    SERVICE_VIEWS,
    AppConfig,
    MarketplaceApp,
    empty_views,
    from_reply,
    ok,
)
from repro.dataflow import StatefunConfig, StatefunRuntime

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class StatefunApp(MarketplaceApp):
    """Online Marketplace as stateful functions with exactly-once."""

    name = "statefun"

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None,
                 statefun_config: StatefunConfig | None = None) -> None:
        super().__init__(env, config)
        self.runtime = StatefunRuntime(env, statefun_config or
                                       StatefunConfig(
                                           partitions=self.config.silos,
                                           cores_per_partition=self
                                           .config.cores_per_silo,
                                           checkpoint_interval=self
                                           .config.checkpoint_interval,
                                           max_resident_addresses=self
                                           .config.activation_limit))
        self.scaling_host = self.runtime
        for name, cls in (
                ("product", fns.ProductFn), ("replica", fns.ReplicaFn),
                ("stock", fns.StockFn), ("cart", fns.CartFn),
                ("order", fns.OrderFn), ("payment", fns.PaymentFn),
                ("shipment", fns.ShipmentFn), ("delivery", fns.DeliveryFn),
                ("customer", fns.CustomerFn), ("seller", fns.SellerFn),
                ("ingestion", fns.IngestionFn)):
            self.runtime.register(name, cls(self))
        self.event_log: list[dict] = []
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    def record_event(self, order_id: str, kind: str) -> None:
        """Audit hook: seller-side lifecycle event processed."""
        self.event_log.append({"subscriber": "seller-service",
                               "time": self.env.now,
                               "order_id": order_id, "kind": kind})

    def _request_id(self, prefix: str) -> str:
        return f"{prefix}-{next(self._request_ids)}"

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _install(self, service: str, key: str, state: dict) -> None:
        self.runtime.install((service, key), state)

    def _post_ingest(self) -> None:
        # Ingested data is durable: it survives a crash that happens
        # before the first periodic checkpoint.  Records installed on
        # first touch later join this baseline (``runtime.install``).
        self.runtime.seal_initial_state()

    # ------------------------------------------------------------------
    # workload operations
    # ------------------------------------------------------------------
    def _await(self, operation: str, target: tuple[str, str],
               payload: dict, request_id: str):
        outcome = yield self.runtime.request(target[0], target[1], payload,
                                             request_id=request_id)
        return from_reply(operation, outcome)

    def add_item(self, customer_id: int, seller_id: int, product_id: int,
                 quantity: int, voucher_cents: int = 0):
        request_id = self._request_id("add")
        result = yield from self._await(
            "add_item", ("cart", str(customer_id)), {
                "kind": "add_item", "seller_id": seller_id,
                "product_id": product_id, "quantity": quantity,
                "voucher_cents": voucher_cents,
                "pending_id": request_id},
            request_id)
        return result

    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        result = yield from self._await(
            "checkout", ("cart", str(customer_id)), {
                "kind": "checkout", "order_id": order_id,
                "method": payment_method},
            order_id)
        return result

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        from repro.marketplace.logic import ingestion as ingestion_logic
        request_id = self._request_id("ext")
        result = yield from self._await(
            "submit_external",
            ("ingestion", ingestion_logic.shard_key(platform, shop_id)), {
                "kind": "submit", "platform": platform,
                "shop_id": shop_id, "ext_order_no": ext_order_no,
                "customer_id": customer_id, "items": items},
            request_id)
        return result

    def request_return(self, customer_id: int, order_id: str):
        request_id = self._request_id("return")
        result = yield from self._await(
            "request_return", ("order", str(customer_id)), {
                "kind": "request_return", "order_id": order_id},
            request_id)
        return result

    def update_price(self, seller_id: int, product_id: int,
                     price_cents: int):
        request_id = self._request_id("price")
        result = yield from self._await(
            "update_price", ("product", f"{seller_id}/{product_id}"), {
                "kind": "update_price", "price_cents": price_cents},
            request_id)
        return result

    def delete_product(self, seller_id: int, product_id: int):
        request_id = self._request_id("delete")
        result = yield from self._await(
            "delete_product", ("product", f"{seller_id}/{product_id}"), {
                "kind": "delete"},
            request_id)
        return result

    def update_delivery(self):
        request_id = self._request_id("delivery")
        result = yield from self._await(
            "update_delivery", ("delivery", request_id),
            {"kind": "start"}, request_id)
        return result

    def dashboard(self, seller_id: int):
        """Two separate requests -> two separate function invocations:
        no shared snapshot, as on the real platform."""
        rid1 = self._request_id("dash-amount")
        promise1 = self.runtime.request(
            "seller", str(seller_id), {"kind": "dashboard_amount"}, rid1)
        amount_reply = yield promise1
        rid2 = self._request_id("dash-entries")
        promise2 = self.runtime.request(
            "seller", str(seller_id), {"kind": "dashboard_entries"}, rid2)
        entries_reply = yield promise2
        entries = entries_reply["entries"]
        return ok("dashboard", amount_cents=amount_reply["amount_cents"],
                  entries=entries,
                  entries_total_cents=sum(entry["amount_cents"]
                                          for entry in entries))

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def audit_views(self) -> dict:
        views = empty_views()
        for worker in self.runtime.workers:
            # Cold (spilled) addresses are the same logical state.
            for states in (worker.state, worker.cold):
                for (type_name, key), state in states.items():
                    view = SERVICE_VIEWS.get(type_name)
                    if view is not None and state:
                        views[view][key] = state
        views["event_log"] = list(self.event_log)
        return views

    def runtime_stats(self) -> dict:
        return {
            "messages_processed": self.runtime.messages_processed,
            "checkpoints": self.runtime.checkpoints_taken,
            "recoveries": self.runtime.recoveries,
            "egress_events": len(self.runtime.egress_log),
            "ingress_compacted": self.runtime.ingress_compacted,
            "working_set": self.runtime.working_set_stats(),
        }

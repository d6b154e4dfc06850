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
from repro.dataflow import StatefunRuntime
from repro.marketplace.logic import seller as seller_logic

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class StatefunApp(MarketplaceApp):
    """Online Marketplace as stateful functions with exactly-once."""

    name = "statefun"

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        super().__init__(env, config)
        self.runtime = StatefunRuntime(env, self.config)
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
    def _request(self, operation: str, service: str, key: str, *,
                 request_id: str | None = None, **fields):
        """Send ``{"kind": operation, **fields}`` to function
        ``service``/``key`` and map the egress that answers it.  The
        request id is drawn when the request starts unless given."""
        reply = yield self.runtime.request(
            service, key, {"kind": operation, **fields},
            request_id or self._request_id(operation))
        return from_reply(operation, reply)

    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        """A checkout's request id is its order id: drawing one would
        renumber every later ``delivery-N`` coordinator, and so move it
        to another partition."""
        return self._request("checkout", "cart", str(customer_id),
                             request_id=order_id, order_id=order_id,
                             payment_method=payment_method)

    def update_delivery(self):
        """The batch coordinator is keyed by its request id."""
        request_id = self._request_id("delivery")
        return (yield from self._request("update_delivery", "delivery",
                                         request_id, request_id=request_id))

    def dashboard(self, seller_id: int):
        """Two separate requests -> two separate function invocations:
        no shared snapshot, as on the real platform."""
        amount = yield from self._request("dashboard_amount", "seller",
                                          str(seller_id))
        entries = (yield from self._request(
            "dashboard_entries", "seller", str(seller_id))).payload["entries"]
        return ok("dashboard", amount_cents=amount.payload["amount_cents"],
                  entries=entries,
                  entries_total_cents=seller_logic.entries_total_cents(
                      entries))

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

"""Customized Orleans: the paper's full-featured stack (Figure 1).

Orleans Transactions for business transactions, plus:

* a Redis-style primary-secondary KV store for *causal* replication of
  product data into carts (reads go through a causal session and never
  observe a state older than an acknowledged update);
* a PostgreSQL-style single-version indexed table for the seller
  dashboard: both of its queries run in one kernel step after one
  query latency, so they read one state;
* causally-ordered event topics (payment before shipment per order).

"Our implementation introduces low overhead, hence its performance is
comparable to Orleans transactions." (paper §III)
"""

from __future__ import annotations

import typing

from repro.apps.base import AppConfig, ok
from repro.apps.grains_txn import TxnCartGrain
from repro.apps.logstore import AuditLogStore
from repro.apps.orleans_transactions import OrleansTransactionsApp
from repro.broker import DeliveryMode
from repro.kvstore import CausalSession, ReplicatedKV
from repro.marketplace.constants import OrderStatus
from repro.marketplace.logic import cart as cart_logic
from repro.marketplace.logic import order as order_logic
from repro.marketplace.logic import seller as seller_logic
from repro.sqlstore import Table, eq, isin

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment

#: Simulated latency of one SQL (PostgreSQL) round trip.
SQL_WRITE_LATENCY = 0.0004
SQL_QUERY_LATENCY = 0.0008


class CausalCartGrain(TxnCartGrain):
    """Cart whose price reads go through the causal KV replica tier."""

    def add_item(self, seller_id: int, product_id: int, quantity: int,
                 voucher_cents: int = 0):
        state = yield from self.txn_read()
        if not state:
            state = cart_logic.new_cart(int(self.key))
        key = f"{seller_id}/{product_id}"
        app = self.cluster.app
        entry = yield from app.kv.get_causal(key, app.session)
        if entry is None or not entry.value.get("active", False):
            return {"status": "rejected", "reason": "unavailable"}
        price = entry.value
        state = cart_logic.add_item(state, {
            "seller_id": seller_id, "product_id": product_id,
            "quantity": quantity,
            "unit_price_cents": price["price_cents"],
            "price_version": price["version"],
            "voucher_cents": voucher_cents})
        yield from self.txn_write(state)
        return {"price_version": price["version"]}


class CustomizedOrleansApp(OrleansTransactionsApp):
    """Transactions + causal KV replication + SQL dashboard queries."""

    name = "customized-orleans"
    delivery_mode = DeliveryMode.CAUSAL

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        super().__init__(env, config)
        # Swap in the causal cart and register it.
        self._grains["cart"] = CausalCartGrain
        self.cluster.register_grain(CausalCartGrain)
        # Storage layer (Figure 1): Redis-style replicated KV ...
        self.kv = ReplicatedKV(
            env, "product-replica", replicas=2,
            replication_lag=self.config.costs.replication_lag)
        self.session = CausalSession("marketplace")
        # ... and a PostgreSQL-style table of dashboard entries, plus
        # the append-only audit log of Figure 1's storage layer.  The
        # delivery batch walks in-transit entries and the dashboard
        # in-progress ones; the status index gives both only those, and
        # the order index gives a re-status its order's rows.
        self.audit_log = AuditLogStore(env)
        self.sql = Table(
            ["entry_id", "order_id", "seller_id", "customer_id",
             "amount_cents", "status", "updated_at"],
            primary_key="entry_id",
            indexes=("seller_id", "status", "order_id"))

    # ------------------------------------------------------------------
    # ingestion: also seed the KV replica tier
    # ------------------------------------------------------------------
    def _ingest_product(self, product) -> None:
        # Seed the KV replica tier alongside the transactional grains;
        # put_now is a latency-free ingestion shortcut, so folding it
        # into the per-record hook keeps on-touch installs and
        # up-front ingestion behaviourally identical.
        super()._ingest_product(product)
        data = product.as_dict()
        self.kv.primary.put_now(product.key, {
            "price_cents": data["price_cents"],
            "version": data["version"], "active": data["active"]})
        for replica in self.kv.replicas:
            replica.store.put_now(product.key, {
                "price_cents": data["price_cents"],
                "version": data["version"], "active": data["active"]})

    # ------------------------------------------------------------------
    # price/catalogue operations also update the KV replica tier
    # ------------------------------------------------------------------
    def update_price(self, seller_id: int, product_id: int,
                     price_cents: int):
        result = yield from super().update_price(seller_id, product_id,
                                                 price_cents)
        if result.ok:
            yield from self.kv.put(
                f"{seller_id}/{product_id}",
                {"price_cents": price_cents,
                 "version": result.payload["version"], "active": True},
                session=self.session)
            self.audit_log.append_async(
                "update_price", f"{seller_id}/{product_id}",
                {"price_cents": price_cents,
                 "version": result.payload["version"]})
        return result

    def delete_product(self, seller_id: int, product_id: int):
        result = yield from super().delete_product(seller_id, product_id)
        if result.ok:
            key = f"{seller_id}/{product_id}"
            entry = yield from self.kv.get_primary(key)
            value = dict(entry.value) if entry else {"price_cents": 0}
            value.update({"active": False,
                          "version": result.payload["version"]})
            yield from self.kv.put(key, value, session=self.session)
            self.audit_log.append_async(
                "delete_product", key,
                {"version": result.payload["version"]})
        return result

    # ------------------------------------------------------------------
    # checkout/delivery additionally maintain the SQL dashboard rows
    # ------------------------------------------------------------------
    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        result = yield from super().checkout(customer_id, order_id,
                                             payment_method)
        if result.ok:
            yield self.env.timeout(SQL_WRITE_LATENCY)
            self._record_entries(customer_id, order_id)
            self.audit_log.append_async(
                "checkout", order_id,
                {"customer_id": customer_id,
                 "total_cents": result.payload["total_cents"]})
        return result

    def _record_entries(self, customer_id: int, order_id: str) -> None:
        order_grain = self.cluster.grain_instance(
            self._grain("order", str(customer_id)))
        orders = order_grain.participant.committed_state.get("orders", {})
        order = orders.get(order_id)
        if order is None:
            return
        self.sql.upsert([{
            "entry_id": f"{order_id}/{seller_id}",
            "order_id": order_id, "seller_id": seller_id,
            "customer_id": order["customer_id"],
            "amount_cents": seller_logic.seller_share_cents(order,
                                                            seller_id),
            "status": OrderStatus.IN_TRANSIT,
            "updated_at": self.env.now}
            for seller_id in order_logic.seller_ids(order)])

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        result = yield from super().submit_external(
            platform, shop_id, ext_order_no, customer_id, items)
        if result.ok and not result.payload.get("idempotent"):
            yield self.env.timeout(SQL_WRITE_LATENCY)
            self._record_entries(customer_id, result.payload["order_id"])
            self.audit_log.append_async(
                "submit_external", result.payload["order_id"],
                {"platform": platform, "shop_id": shop_id,
                 "ext_order_no": ext_order_no,
                 "total_cents": result.payload["total_cents"]})
        return result

    def request_return(self, customer_id: int, order_id: str):
        result = yield from super().request_return(customer_id, order_id)
        if result.ok:
            yield self.env.timeout(SQL_WRITE_LATENCY)
            self._restatus_entries(order_id, result.payload["outcome"])
            self.audit_log.append_async(
                "request_return", order_id,
                {"customer_id": customer_id,
                 "outcome": result.payload["outcome"],
                 "refund_cents": result.payload["refund_cents"]})
        return result

    def _restatus_entries(self, order_id: str, status: str) -> None:
        self.sql.update(eq("order_id", order_id),
                        {"status": status, "updated_at": self.env.now})

    def update_delivery(self):
        result = yield from super().update_delivery()
        if result.ok:
            yield self.env.timeout(SQL_WRITE_LATENCY)
            self._retire_completed_entries()
            self.audit_log.append_async(
                "update_delivery", "batch",
                {"packages_delivered":
                 result.payload["packages_delivered"]})
        return result

    def _retire_completed_entries(self) -> None:
        """Mark completed the in-transit entries whose order has
        completed.  Walks only the in-transit rows and reads each one's
        order grain, resident or paged out (possible only under an
        activation budget), so a pass costs O(orders in flight)."""
        order_type = self._grains["order"].__name__
        rows = self.sql.rows
        orders_of: dict[object, list[dict]] = {}
        completed: set[str] = set()
        # The status bucket itself: no copy, no sort.
        for key in self.sql.indexes["status"].get(OrderStatus.IN_TRANSIT,
                                                  ()):
            row = rows[key]
            customer_id = row["customer_id"]
            maps = orders_of.get(customer_id)
            if maps is None:
                orders_of[customer_id] = maps = self._order_maps(
                    order_type, str(customer_id))
            for orders in maps:
                order = orders.get(row["order_id"])
                if order and order["status"] == OrderStatus.COMPLETED:
                    completed.add(row["order_id"])
        self.sql.update(eq("status", OrderStatus.IN_TRANSIT)
                        & isin("order_id", completed),
                        {"status": OrderStatus.COMPLETED,
                         "updated_at": self.env.now})

    def _order_maps(self, order_type: str, key: str) -> list[dict]:
        """The ``orders`` maps of one order grain: each resident
        activation's committed state, and its paged-out state."""
        ident = (order_type, key)
        maps = []
        for silo in self.cluster.silos:
            activation = silo.activations.get(ident)
            if activation and activation.grain._participant is not None:
                maps.append(activation.grain._participant
                            .committed_state.get("orders", {}))
        if ident in self.cluster._paged:
            paged = self.cluster.pager.peek(ident)
            if paged:
                maps.append(paged["state"].get("orders", {}))
        return maps

    # ------------------------------------------------------------------
    # the consistent dashboard: both queries in ONE kernel step
    # ------------------------------------------------------------------
    def dashboard(self, seller_id: int):
        yield self.env.timeout(SQL_QUERY_LATENCY)
        # No yield between the two reads: no write can land between
        # them, so they read one state (criterion C4).
        predicate = (eq("seller_id", seller_id)
                     & isin("status", OrderStatus.IN_PROGRESS))
        amount = self.sql.sum("amount_cents", predicate)
        entries = self.sql.scan(predicate)
        return ok("dashboard", amount_cents=amount, entries=entries,
                  entries_total_cents=seller_logic.entries_total_cents(
                      entries))

    # ------------------------------------------------------------------
    def runtime_stats(self) -> dict:
        stats = super().runtime_stats()
        stats.update({
            "kv_causal_waits": self.kv.causal_waits,
            "sql_committed": self.sql.committed,
            "audit_records": len(self.audit_log),
        })
        return stats

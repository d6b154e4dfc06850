"""Stateful functions of the dataflow (Statefun) implementation.

Function-to-function communication is one-way messaging, so multi-step
interactions (price lookup, stock reservation, payment) are explicit
state machines keyed by order/request id.  Delivery is guaranteed
(at-least-once + replay + deduplicated egress = exactly-once), which is
why this implementation keeps all-or-nothing *completeness* without
transactions — at the cost of the dataflow envelope overhead and
checkpoint stalls the benchmark measures.

State is a value (see :class:`~repro.dataflow.Context`): a function
writes the top-level keys of ``context.state`` in place but replaces,
never mutates, anything below them — the marketplace logic path-copies,
and the in-flight maps here go through ``assoc_in`` / ``dissoc_in``.
"""

from __future__ import annotations

import typing

from repro.cow import assoc_in, dissoc_in
from repro.dataflow import Context, StatefulFunction
from repro.marketplace.constants import OrderStatus
from repro.marketplace.logic import (
    cart as cart_logic,
    customer as customer_logic,
    ingestion as ingestion_logic,
    lifecycle,
    order as order_logic,
    payment as payment_logic,
    product as product_logic,
    seller as seller_logic,
    shipment as shipment_logic,
    stock as stock_logic,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.statefun_app import StatefunApp


class _AppFunction(StatefulFunction):
    """Base: functions hold a reference to the app for config/audit."""

    def __init__(self, app: "StatefunApp") -> None:
        self.app = app


class ProductFn(_AppFunction):
    """Authoritative product record; pushes updates to the replica."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if kind == "update_price":
            if not state or not state.get("active", False):
                context.egress("update_price",
                               {"status": "rejected", "reason": "inactive"})
                return None
            updated = product_logic.update_price(dict(state),
                                                 payload["price_cents"])
            state.clear()
            state.update(updated)
            context.send("replica", context.key, {
                "kind": "apply_update",
                "price_cents": updated["price_cents"],
                "version": updated["version"]})
        elif kind == "delete":
            if not state or not state.get("active", False):
                context.egress("delete_product",
                               {"status": "rejected", "reason": "inactive"})
                return None
            deleted = product_logic.delete(dict(state))
            state.clear()
            state.update(deleted)
            context.send("replica", context.key, {
                "kind": "apply_delete", "version": deleted["version"]})
        return None


class ReplicaFn(_AppFunction):
    """Cart-side replica; acks seller operations once applied."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if kind == "get_price":
            if state and state.get("active", False):
                reply = {"price_cents": state["price_cents"],
                         "version": state["version"]}
            else:
                reply = None
            context.send("cart", payload["reply_to"], {
                "kind": "price_reply", "key": context.key,
                "price": reply, "pending_id": payload["pending_id"]})
        elif kind == "apply_update":
            if not state or state.get("version", 0) < payload["version"]:
                state["price_cents"] = payload["price_cents"]
                state["version"] = payload["version"]
                state.setdefault("active", True)
            # The seller's update is acknowledged only after the replica
            # applied it: per-product read-your-writes holds.
            context.egress("update_price",
                           {"status": "ok", "version": payload["version"]})
        elif kind == "apply_delete":
            if not state or state.get("version", 0) < payload["version"]:
                state["active"] = False
                state["version"] = payload["version"]
            context.send("stock", context.key, {
                "kind": "deactivate", "version": payload["version"]})
        return None


class StockFn(_AppFunction):
    """Inventory item; replies reservation outcomes to the order fn."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if kind == "reserve":
            ok = False
            if state:
                new_state, ok = stock_logic.reserve(dict(state),
                                                    payload["quantity"])
                if ok:
                    state.clear()
                    state.update(new_state)
            context.send("order", payload["reply_to"], {
                "kind": "reserve_result", "order_id": payload["order_id"],
                "key": context.key, "ok": ok})
        elif kind == "confirm":
            updated = stock_logic.confirm_reservation(
                dict(state), payload["quantity"])
            state.clear()
            state.update(updated)
        elif kind == "cancel":
            updated = stock_logic.cancel_reservation(
                dict(state), payload["quantity"])
            state.clear()
            state.update(updated)
        elif kind == "allocate":
            # Reserve-and-confirm in one step (external-order ingestion).
            ok = False
            if state and state.get("active", True):
                free = state["qty_available"] - state["qty_reserved"]
                if free >= payload["quantity"]:
                    state["qty_available"] -= payload["quantity"]
                    ok = True
            context.send("order", payload["reply_to"], {
                "kind": "allocate_result", "order_id": payload["order_id"],
                "key": context.key, "ok": ok})
        elif kind == "restock":
            if state:
                updated = stock_logic.restock(dict(state),
                                              payload["quantity"])
                state.clear()
                state.update(updated)
        elif kind == "deactivate":
            if state:
                updated = stock_logic.deactivate(dict(state),
                                                 payload["version"])
                state.clear()
                state.update(updated)
            context.egress("delete_product",
                           {"status": "ok", "version": payload["version"]},
                           effect_id=f"{context.request_id}:delete_product")
        return None


class CartFn(_AppFunction):
    """Per-customer cart with a pending-add state machine."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if not state:
            state.update(cart_logic.new_cart(int(context.key)))
            state["pending_adds"] = {}
        if kind == "add_item":
            pending_id = payload["pending_id"]
            state["pending_adds"] = assoc_in(
                state["pending_adds"], (pending_id,), {
                    "seller_id": payload["seller_id"],
                    "product_id": payload["product_id"],
                    "quantity": payload["quantity"],
                    "voucher_cents": payload.get("voucher_cents", 0)})
            key = f"{payload['seller_id']}/{payload['product_id']}"
            context.send("replica", key, {
                "kind": "get_price", "reply_to": context.key,
                "pending_id": pending_id})
        elif kind == "price_reply":
            pending = state["pending_adds"].get(payload["pending_id"])
            if pending is None:
                return None
            state["pending_adds"] = dissoc_in(state["pending_adds"],
                                              (payload["pending_id"],))
            if payload["price"] is None:
                context.egress("add_item",
                               {"status": "rejected",
                                "reason": "unavailable"},
                               effect_id=f"{context.request_id}:add_item")
            else:
                updated = cart_logic.add_item(
                    {key: value for key, value in state.items()
                     if key not in ("pending_adds", "parked_checkout")},
                    {**pending,
                     "unit_price_cents": payload["price"]["price_cents"],
                     "price_version": payload["price"]["version"]})
                self._merge(state, updated)
                context.egress(
                    "add_item",
                    {"status": "ok",
                     "price_version": payload["price"]["version"]},
                    effect_id=f"{context.request_id}:add_item")
            # Replay safety: a checkout that arrived while adds were in
            # flight was parked; run it once the last add resolves.
            parked = state.get("parked_checkout")
            if parked is not None and not state["pending_adds"]:
                state["parked_checkout"] = None
                self._checkout(context, parked, state)
        elif kind == "checkout":
            if state["pending_adds"]:
                # Adds still doing their replica round-trip: defer the
                # checkout so outcomes do not depend on message timing
                # (crash replay collapses inter-arrival gaps).
                state["parked_checkout"] = {
                    "order_id": payload["order_id"],
                    "method": payload["method"],
                    "request_id": context.request_id}
                return None
            self._checkout(context, {
                "order_id": payload["order_id"],
                "method": payload["method"],
                "request_id": context.request_id}, state)
        return None

    @staticmethod
    def _merge(state, updated):
        pending_adds = state["pending_adds"]
        parked = state.get("parked_checkout")
        state.clear()
        state.update(updated)
        state["pending_adds"] = pending_adds
        state["parked_checkout"] = parked

    def _checkout(self, context, request, state):
        base = {key: value for key, value in state.items()
                if key not in ("pending_adds", "parked_checkout")}
        try:
            sealed, items = cart_logic.seal_for_checkout(base)
        except ValueError:
            context.egress("checkout",
                           {"status": "rejected", "reason": "empty_cart",
                            "order_id": request["order_id"]},
                           effect_id=f"{request['order_id']}:checkout")
            return
        self._merge(state, sealed)
        context.send("order", context.key, {
            "kind": "create_order", "order_id": request["order_id"],
            "items": items, "method": request["method"]},
            request_id=request["order_id"])


class OrderFn(_AppFunction):
    """Checkout orchestrator as an explicit state machine."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if not state:
            state.update(order_logic.new_customer_orders(int(context.key)))
            state["pending"] = {}
        handler = getattr(self, f"_{kind}", None)
        if handler is None:
            return None
        return handler(context, payload, state)

    # -- phase 1: reserve (checkout) or allocate (external) stock -------
    @staticmethod
    def _request_stock(context, verb, order_id, items):
        for item in items:
            key = f"{item['seller_id']}/{item['product_id']}"
            context.send("stock", key, {
                "kind": verb, "order_id": order_id,
                "quantity": item["quantity"], "reply_to": context.key})

    @staticmethod
    def _collect_stock_reply(payload, state):
        """Count one stock reply in; the pending order once it has all
        its replies, else None."""
        order_id = payload["order_id"]
        pending = state["pending"].get(order_id)
        if pending is None:
            return None
        pending = {**pending, "awaiting": pending["awaiting"] - 1}
        if payload["ok"]:
            matched = [item for item in pending["items"]
                       if f"{item['seller_id']}/{item['product_id']}"
                       == payload["key"]]
            pending["confirmed"] = pending["confirmed"] + matched
        state["pending"] = assoc_in(state["pending"], (order_id,), pending)
        return None if pending["awaiting"] > 0 else pending

    def _create_order(self, context, payload, state):
        order_id = payload["order_id"]
        items = payload["items"]
        state["pending"] = assoc_in(state["pending"], (order_id,), {
            "items": items, "method": payload["method"],
            "awaiting": len(items), "confirmed": []})
        self._request_stock(context, "reserve", order_id, items)
        return None

    def _reserve_result(self, context, payload, state):
        pending = self._collect_stock_reply(payload, state)
        if pending is None:
            return None
        order_id = payload["order_id"]
        if not pending["confirmed"]:
            self._take_pending(state, order_id)
            context.egress("checkout",
                           {"status": "rejected", "reason": "no_stock",
                            "order_id": order_id},
                           effect_id=f"{order_id}:checkout")
            return None
        base, order = order_logic.assemble(
            self._base(state), order_id, pending["confirmed"],
            context.worker.env.now)
        self._replace(state, base)
        state["pending"] = assoc_in(state["pending"], (order_id,),
                                    {**pending, "order": order})
        for seller_id in order_logic.seller_ids(order):
            context.send("seller", str(seller_id), {
                "kind": "upsert_entry", "order": order})
        context.send("payment", order_id, {
            "kind": "process", "order": order,
            "method": pending["method"], "reply_to": context.key})
        return None

    # -- external-order ingestion (prepaid, no reservation round) ---------
    def _ingest_external(self, context, payload, state):
        order_id = payload["order_id"]
        state["pending"] = assoc_in(state["pending"], (order_id,), {
            "items": payload["items"], "awaiting": len(payload["items"]),
            "confirmed": [], "ext": payload["ext"], "external": True,
            "reply_shard": payload["reply_shard"]})
        self._request_stock(context, "allocate", order_id, payload["items"])
        return None

    def _allocate_result(self, context, payload, state):
        pending = self._collect_stock_reply(payload, state)
        if pending is None:
            return None
        order_id = payload["order_id"]
        self._take_pending(state, order_id)
        if not pending["confirmed"]:
            # Nothing allocated: un-register the dedup entry so a later
            # submit can retry from scratch.
            context.send("ingestion", pending["reply_shard"], {
                "kind": "release", "key": pending["ext"]})
            context.egress("submit_external",
                           {"status": "rejected", "reason": "no_stock",
                            "order_id": order_id})
            return None
        base, order = order_logic.assemble(
            self._base(state), order_id, pending["confirmed"],
            context.worker.env.now, ext=pending["ext"])
        base = order_logic.set_status(
            base, order_id, OrderStatus.PAYMENT_PROCESSED,
            context.worker.env.now)
        self._replace(state, base)
        for seller_id in order_logic.seller_ids(order):
            context.send("seller", str(seller_id), {
                "kind": "upsert_entry", "order": order})
            context.send("seller", str(seller_id), {
                "kind": "update_entry_status", "order_id": order_id,
                "status": OrderStatus.PAYMENT_PROCESSED})
        context.send("customer", context.key, {
            "kind": "record_payment",
            "amount_cents": order["total_cents"], "approved": True})
        context.send("shipment", self.app.shipment_partition(order_id), {
            "kind": "create", "order": order, "external": True})
        context.egress("submit_external",
                       {"status": "ok", "order_id": order_id,
                        "idempotent": False, "invoice": order["invoice"],
                        "total_cents": order["total_cents"]})
        return None

    # -- return/refund compensation saga ----------------------------------
    def _request_return(self, context, payload, state):
        order_id = payload["order_id"]
        base = self._base(state)
        if order_id not in base["orders"]:
            context.egress("request_return",
                           {"status": "rejected",
                            "reason": "unknown_order",
                            "order_id": order_id})
            return None
        order = base["orders"][order_id]
        if order["status"] != OrderStatus.COMPLETED:
            context.egress("request_return",
                           {"status": "rejected",
                            "reason": "not_completed",
                            "order_id": order_id,
                            "state": order["status"]})
            return None
        base = order_logic.set_status(
            base, order_id, OrderStatus.RETURN_REQUESTED,
            context.worker.env.now)
        self._replace(state, base)
        state["pending"] = assoc_in(
            state["pending"], (f"return:{order_id}",),
            {"outcome": lifecycle.disposition(order_id)})
        context.send("payment", order_id, {
            "kind": "refund", "order_id": order_id,
            "reply_to": context.key})
        return None

    def _refund_result(self, context, payload, state):
        order_id = payload["order_id"]
        pending = self._take_pending(state, f"return:{order_id}")
        if pending is None:
            return None
        if not payload["ok"]:
            # Order stays in RETURN_REQUESTED — the audit counts it.
            context.egress("request_return",
                           {"status": "failed",
                            "reason": "refund_unreachable",
                            "order_id": order_id})
            return None
        outcome = pending["outcome"]
        base = self._base(state)
        for hop in lifecycle.return_hops(outcome)[1:]:
            base = order_logic.set_status(base, order_id, hop,
                                          context.worker.env.now)
        self._replace(state, base)
        order = base["orders"][order_id]
        if outcome != OrderStatus.DEFECT:
            for item in order["items"]:
                key = f"{item['seller_id']}/{item['product_id']}"
                context.send("stock", key, {
                    "kind": "restock", "quantity": item["quantity"]})
        for seller_id in order_logic.seller_ids(order):
            amount = seller_logic.seller_share_cents(order, seller_id)
            if amount:
                context.send("seller", str(seller_id), {
                    "kind": "record_return", "order_id": order_id,
                    "amount_cents": amount})
        context.send("customer", context.key, {
            "kind": "record_refund",
            "amount_cents": order["total_cents"]})
        context.egress("request_return",
                       {"status": "ok", "order_id": order_id,
                        "outcome": outcome,
                        "refund_cents": order["total_cents"]})
        return None

    # -- phase 2: payment -------------------------------------------------
    def _payment_result(self, context, payload, state):
        order_id = payload["order_id"]
        pending = self._take_pending(state, order_id)
        if pending is None:
            return None
        order = pending["order"]
        sellers = order_logic.seller_ids(order)
        base = self._base(state)
        if not payload["approved"]:
            for item in pending["confirmed"]:
                key = f"{item['seller_id']}/{item['product_id']}"
                context.send("stock", key, {
                    "kind": "cancel", "quantity": item["quantity"]})
            base = order_logic.set_status(
                base, order_id, OrderStatus.PAYMENT_FAILED,
                context.worker.env.now)
            base = order_logic.set_status(
                base, order_id, OrderStatus.CANCELED,
                context.worker.env.now)
            self._replace(state, base)
            for seller_id in sellers:
                context.send("seller", str(seller_id), {
                    "kind": "update_entry_status", "order_id": order_id,
                    "status": OrderStatus.CANCELED})
            context.send("customer", context.key, {
                "kind": "record_payment",
                "amount_cents": order["total_cents"], "approved": False})
            context.egress("checkout",
                           {"status": "failed", "reason": "payment",
                            "order_id": order_id,
                            "total_cents": order["total_cents"]},
                           effect_id=f"{order_id}:checkout")
            return None
        for item in pending["confirmed"]:
            key = f"{item['seller_id']}/{item['product_id']}"
            context.send("stock", key, {
                "kind": "confirm", "quantity": item["quantity"]})
        base = order_logic.set_status(
            base, order_id, OrderStatus.PAYMENT_PROCESSED,
            context.worker.env.now)
        self._replace(state, base)
        for seller_id in sellers:
            context.send("seller", str(seller_id), {
                "kind": "update_entry_status", "order_id": order_id,
                "status": OrderStatus.PAYMENT_PROCESSED})
        context.send("customer", context.key, {
            "kind": "record_payment",
            "amount_cents": order["total_cents"], "approved": True})
        context.send("shipment", self.app.shipment_partition(order_id), {
            "kind": "create", "order": order})
        return None

    # -- phase 3: shipment / delivery --------------------------------------
    def _record_shipment(self, context, payload, state):
        base = self._base(state)
        if payload["order_id"] not in base["orders"]:
            return None
        base = order_logic.record_shipment(
            base, payload["order_id"], payload["package_count"],
            context.worker.env.now)
        self._replace(state, base)
        return None

    def _record_delivery(self, context, payload, state):
        order_id = payload["order_id"]
        base = self._base(state)
        if order_id not in base["orders"]:
            return None
        base, completed = order_logic.record_delivery(
            base, order_id, context.worker.env.now)
        self._replace(state, base)
        if completed:
            order = base["orders"][order_id]
            for seller_id in order_logic.seller_ids(order):
                context.send("seller", str(seller_id), {
                    "kind": "update_entry_status", "order_id": order_id,
                    "status": OrderStatus.COMPLETED})
            context.send("customer", context.key,
                         {"kind": "record_delivery"})
        return None

    @staticmethod
    def _take_pending(state, pending_id):
        """Remove and return the in-flight entry ``pending_id`` (None
        when absent)."""
        pending = state["pending"].get(pending_id)
        if pending is not None:
            state["pending"] = dissoc_in(state["pending"], (pending_id,))
        return pending

    @staticmethod
    def _base(state):
        """The order state without the in-flight ``pending`` map."""
        return {key: value for key, value in state.items()
                if key != "pending"}

    @staticmethod
    def _replace(state, base):
        """Install ``base`` as the order state, keeping ``pending``."""
        pending = state["pending"]
        state.clear()
        state.update(base)
        state["pending"] = pending


class PaymentFn(_AppFunction):
    """Per-order payment processor."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        if kind == "process":
            order = payload["order"]
            payment = payment_logic.build_payment(
                order["order_id"], order["customer_id"],
                order["total_cents"], payload["method"],
                context.worker.env.now)
            payment = payment_logic.authorize(
                payment, self.app.config.approval_rate)
            context.state.clear()
            context.state.update(payment)
            context.send("order", payload["reply_to"], {
                "kind": "payment_result", "order_id": order["order_id"],
                "approved": payment_logic.is_approved(payment)})
        elif kind == "refund":
            state = context.state
            done = bool(state) and payment_logic.is_approved(state)
            if done:
                updated = payment_logic.refund(dict(state))
                state.clear()
                state.update(updated)
            context.send("order", payload["reply_to"], {
                "kind": "refund_result", "order_id": payload["order_id"],
                "ok": done})
        return None


class ShipmentFn(_AppFunction):
    """Shipment partition; completes the checkout egress."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if not state:
            state.update(shipment_logic.new_shipments())
        if kind == "create":
            order = payload["order"]
            if order["order_id"] in state["shipments"]:
                return None
            updated, shipment = shipment_logic.create_shipment(
                dict(state), order["order_id"], order["customer_id"],
                order["items"], context.worker.env.now)
            state.clear()
            state.update(updated)
            count = len(shipment["packages"])
            context.send("order", str(order["customer_id"]), {
                "kind": "record_shipment", "order_id": order["order_id"],
                "package_count": count})
            for seller_id in order_logic.seller_ids(order):
                context.send("seller", str(seller_id), {
                    "kind": "update_entry_status",
                    "order_id": order["order_id"],
                    "status": OrderStatus.IN_TRANSIT})
            if not payload.get("external"):
                # External orders resolve their submit at creation; only
                # checkouts complete on the shipment egress.
                context.egress("checkout",
                               {"status": "ok",
                                "order_id": order["order_id"],
                                "total_cents": order["total_cents"],
                                "package_count": count},
                               effect_id=f"{order['order_id']}:checkout")
        elif kind == "collect_undelivered":
            summary = []
            for seller_id, when in shipment_logic.undelivered_seller_times(
                    state):
                package = shipment_logic.oldest_undelivered_package(
                    state, seller_id)
                summary.append({
                    "seller_id": seller_id, "shipped_at": when,
                    "order_id": package["order_id"],
                    "package_id": package["package_id"]})
            context.send("delivery", payload["reply_to"], {
                "kind": "partition_summary",
                "partition": context.key, "summary": summary})
        elif kind == "mark_delivered":
            existing = state["shipments"].get(payload["order_id"], {})
            package = existing.get("packages", {}).get(
                payload["package_id"])
            if package is None or package["status"] == "delivered":
                context.send("delivery", payload["reply_to"], {
                    "kind": "delivered_ack", "ok": False})
                return None
            updated, package = shipment_logic.mark_delivered(
                dict(state), payload["order_id"],
                payload["package_id"], context.worker.env.now)
            state.clear()
            state.update(updated)
            shipment = state["shipments"][payload["order_id"]]
            context.send("order", str(shipment["customer_id"]), {
                "kind": "record_delivery",
                "order_id": payload["order_id"]})
            context.send("delivery", payload["reply_to"], {
                "kind": "delivered_ack", "ok": True})
        return None


class DeliveryFn(_AppFunction):
    """Coordinator of the Update Delivery batch (keyed per request)."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if kind == "start":
            state["awaiting"] = self.app.shipment_partitions
            state["summaries"] = []
            state["acks_expected"] = 0
            state["acks_seen"] = 0
            state["delivered"] = 0
            for index in range(self.app.shipment_partitions):
                context.send("shipment", f"part-{index}", {
                    "kind": "collect_undelivered",
                    "reply_to": context.key})
        elif kind == "partition_summary":
            state["awaiting"] -= 1
            state["summaries"] = state["summaries"] + [
                {**entry, "partition": payload["partition"]}
                for entry in payload["summary"]]
            if state["awaiting"] > 0:
                return None
            best: dict[int, dict] = {}
            for entry in state["summaries"]:
                current = best.get(entry["seller_id"])
                if current is None \
                        or entry["shipped_at"] < current["shipped_at"]:
                    best[entry["seller_id"]] = entry
            chosen = sorted(best.values(),
                            key=lambda entry: (entry["shipped_at"],
                                               entry["seller_id"]))[:10]
            if not chosen:
                context.egress("update_delivery",
                               {"status": "ok", "sellers": 0,
                                "packages_delivered": 0})
                return None
            state["acks_expected"] = len(chosen)
            for entry in chosen:
                context.send("shipment", entry["partition"], {
                    "kind": "mark_delivered",
                    "order_id": entry["order_id"],
                    "package_id": entry["package_id"],
                    "reply_to": context.key})
        elif kind == "delivered_ack":
            state["acks_seen"] += 1
            if payload["ok"]:
                state["delivered"] += 1
            if state["acks_seen"] >= state["acks_expected"]:
                context.egress("update_delivery",
                               {"status": "ok",
                                "sellers": state["acks_expected"],
                                "packages_delivered": state["delivered"]})
        return None


class CustomerFn(_AppFunction):
    """Customer statistics."""

    def invoke(self, context: Context, payload: dict):
        state = context.state
        if not state:
            state.update(customer_logic.new_customer(int(context.key)))
        kind = payload["kind"]
        if kind == "record_payment":
            updated = customer_logic.record_payment(
                dict(state), payload["amount_cents"], payload["approved"])
        elif kind == "record_delivery":
            updated = customer_logic.record_delivery(dict(state))
        elif kind == "record_refund":
            updated = customer_logic.record_refund(
                dict(state), payload["amount_cents"])
        else:
            return None
        state.clear()
        state.update(updated)
        return None


class SellerFn(_AppFunction):
    """Seller dashboard view plus the two dashboard queries."""

    def invoke(self, context: Context, payload: dict):
        state = context.state
        if not state:
            state.update(seller_logic.new_seller(int(context.key)))
        kind = payload["kind"]
        if kind == "upsert_entry":
            self.app.record_event(payload["order"]["order_id"],
                                  "order_created")
            updated = seller_logic.upsert_entry(dict(state),
                                                payload["order"])
        elif kind == "update_entry_status":
            self.app.record_event(
                payload["order_id"],
                _STATUS_TO_EVENT.get(payload["status"],
                                     payload["status"]))
            updated = seller_logic.update_entry_status(
                dict(state), payload["order_id"], payload["status"],
                context.worker.env.now)
        elif kind == "record_return":
            self.app.record_event(payload["order_id"], "order_returned")
            updated = seller_logic.record_return(dict(state),
                                                 payload["amount_cents"])
        elif kind == "dashboard_amount":
            context.egress("dashboard_amount",
                           {"amount_cents":
                            seller_logic.dashboard_amount(state)})
            return None
        elif kind == "dashboard_entries":
            context.egress("dashboard_entries",
                           {"entries":
                            seller_logic.dashboard_entries(state)})
            return None
        else:
            return None
        state.clear()
        state.update(updated)
        return None


class IngestionFn(_AppFunction):
    """Dedup registry shard for one external ``(platform, shop_id)``.

    Registration and order creation both run under the platform's
    exactly-once envelope, so a duplicate submit resolves from the
    registry without ever re-creating the order — the transactional
    stacks get the same guarantee from atomic commit, the eventual
    stack gets neither."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        state = context.state
        if not state:
            state.update(ingestion_logic.new_registry(context.key))
        if kind == "submit":
            key = ingestion_logic.dedup_key(
                payload["platform"], payload["shop_id"],
                payload["ext_order_no"])
            updated, order_id, created = ingestion_logic.register(
                dict(state), key)
            if not created:
                context.egress("submit_external",
                               {"status": "ok", "order_id": order_id,
                                "idempotent": True})
                return None
            state.clear()
            state.update(updated)
            context.send("order", str(payload["customer_id"]), {
                "kind": "ingest_external", "order_id": order_id,
                "items": payload["items"], "ext": key,
                "reply_shard": context.key})
        elif kind == "release":
            # The order side rejected the ingest (no stock): drop the
            # registration so a later submit can retry.
            state.update(ingestion_logic.release(state, payload["key"]))
        return None


#: Seller-entry status changes mapped back to the lifecycle event that
#: caused them (for the event-ordering audit log).
_STATUS_TO_EVENT = {
    OrderStatus.PAYMENT_PROCESSED: "payment_confirmed",
    OrderStatus.CANCELED: "payment_failed",
    OrderStatus.IN_TRANSIT: "shipment_notification",
    OrderStatus.COMPLETED: "order_completed",
}

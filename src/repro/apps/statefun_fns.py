"""Stateful functions of the dataflow (Statefun) implementation.

Function-to-function communication is one-way messaging, so multi-step
interactions (price lookup, stock reservation, payment) are explicit
state machines keyed by order/request id.  Delivery is guaranteed
(at-least-once + replay + deduplicated egress = exactly-once), which is
why this implementation keeps all-or-nothing *completeness* without
transactions — at the cost of the dataflow envelope overhead and
checkpoint stalls the benchmark measures.

A request arrives as ``{"kind": operation, **fields}``, named after
the operation it serves, and its answer is one egress of that kind.
State is a value (see :class:`~repro.dataflow.Context`): a function
replaces its domain state by assignment, ``context.state =
logic(state, ...)`` — the marketplace logic path-copies and keeps the
in-flight top-level keys (``pending``, ``pending_adds``,
``parked_checkout``).  Protocol bookkeeping may still set top-level keys
in place; the in-flight maps go through ``assoc_in`` / ``dissoc_in``,
and nothing below the top level is ever mutated.
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
        if kind not in ("update_price", "delete_product"):
            return None
        if not state or not state.get("active", False):
            context.egress(kind, {"status": "rejected", "reason": "inactive"})
            return None
        if kind == "update_price":
            context.state = state = product_logic.update_price(
                state, payload["price_cents"])
            context.send("replica", context.key, {
                "kind": "apply_update", "price_cents": state["price_cents"],
                "version": state["version"]})
        else:
            context.state = state = product_logic.delete(state)
            context.send("replica", context.key, {
                "kind": "apply_delete", "version": state["version"]})
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
                context.state, ok = stock_logic.reserve(state,
                                                        payload["quantity"])
            context.send("order", payload["reply_to"], {
                "kind": "reserve_result", "order_id": payload["order_id"],
                "key": context.key, "ok": ok})
        elif kind == "confirm":
            context.state = stock_logic.confirm_reservation(
                state, payload["quantity"])
        elif kind == "cancel":
            context.state = stock_logic.cancel_reservation(
                state, payload["quantity"])
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
                context.state = stock_logic.restock(state,
                                                    payload["quantity"])
        elif kind == "deactivate":
            if state:
                context.state = stock_logic.deactivate(state,
                                                       payload["version"])
            context.egress("delete_product",
                           {"status": "ok", "version": payload["version"]})
        return None


class CartFn(_AppFunction):
    """Per-customer cart with a pending-add state machine; an add is
    pending under its request id."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        if not context.state:
            context.state = {**cart_logic.new_cart(int(context.key)),
                             "pending_adds": {}}
        state = context.state
        if kind == "add_item":
            state["pending_adds"] = assoc_in(
                state["pending_adds"], (context.request_id,), {
                    "seller_id": payload["seller_id"],
                    "product_id": payload["product_id"],
                    "quantity": payload["quantity"],
                    "voucher_cents": payload.get("voucher_cents", 0)})
            key = f"{payload['seller_id']}/{payload['product_id']}"
            context.send("replica", key, {
                "kind": "get_price", "reply_to": context.key,
                "pending_id": context.request_id})
        elif kind == "price_reply":
            pending = state["pending_adds"].get(payload["pending_id"])
            if pending is None:
                return None
            state["pending_adds"] = dissoc_in(state["pending_adds"],
                                              (payload["pending_id"],))
            price = payload["price"]
            if price is None:
                context.egress("add_item", {"status": "rejected",
                                            "reason": "unavailable"})
            else:
                context.state = state = cart_logic.add_item(state, {
                    **pending, "unit_price_cents": price["price_cents"],
                    "price_version": price["version"]})
                context.egress("add_item", {"status": "ok",
                                            "price_version": price["version"]})
            # Replay safety: a checkout that arrived while adds were in
            # flight was parked; run it once the last add resolves.
            parked = state.get("parked_checkout")
            if parked is not None and not state["pending_adds"]:
                state["parked_checkout"] = None
                self._checkout(context, **parked)
        elif kind == "checkout":
            request = {"order_id": payload["order_id"],
                       "payment_method": payload["payment_method"]}
            if state["pending_adds"]:
                # Adds still doing their replica round-trip: defer the
                # checkout so outcomes do not depend on message timing
                # (crash replay collapses inter-arrival gaps).
                state["parked_checkout"] = request
                return None
            self._checkout(context, **request)
        return None

    @staticmethod
    def _checkout(context, order_id, payment_method):
        try:
            context.state, items = cart_logic.seal_for_checkout(
                context.state)
        except ValueError:
            # A parked checkout runs in a later add's invocation, under
            # the add's request id: name the checkout's own effect.
            context.egress("checkout",
                           {"status": "rejected", "reason": "empty_cart",
                            "order_id": order_id},
                           effect_id=f"{order_id}:checkout")
            return
        context.send("order", context.key, {
            "kind": "create_order", "order_id": order_id,
            "items": items, "method": payment_method},
            request_id=order_id)


class OrderFn(_AppFunction):
    """Checkout orchestrator as an explicit state machine.  The in-flight
    ``pending`` map rides along at the top level of the order state;
    every message of a checkout carries the order id as request id."""

    def invoke(self, context: Context, payload: dict):
        if not context.state:
            context.state = {
                **order_logic.new_customer_orders(int(context.key)),
                "pending": {}}
        handler = getattr(self, f"_{payload['kind']}", None)
        if handler is not None:
            handler(context, payload)
        return None

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

    def _create_order(self, context, payload):
        order_id = payload["order_id"]
        items = payload["items"]
        state = context.state
        state["pending"] = assoc_in(state["pending"], (order_id,), {
            "items": items, "method": payload["method"],
            "awaiting": len(items), "confirmed": []})
        self._request_stock(context, "reserve", order_id, items)

    def _reserve_result(self, context, payload):
        pending = self._collect_stock_reply(payload, context.state)
        if pending is None:
            return
        order_id = payload["order_id"]
        if not pending["confirmed"]:
            self._take_pending(context.state, order_id)
            context.egress("checkout",
                           {"status": "rejected", "reason": "no_stock",
                            "order_id": order_id})
            return
        state, order = order_logic.assemble(
            context.state, order_id, pending["confirmed"],
            context.worker.env.now)
        state["pending"] = assoc_in(state["pending"], (order_id,),
                                    {**pending, "order": order})
        context.state = state
        for seller_id in order_logic.seller_ids(order):
            context.send("seller", str(seller_id), {
                "kind": "upsert_entry", "order": order})
        context.send("payment", order_id, {
            "kind": "process", "order": order,
            "method": pending["method"], "reply_to": context.key})

    # -- external-order ingestion (prepaid, no reservation round) ---------
    def _ingest_external(self, context, payload):
        order_id = payload["order_id"]
        state = context.state
        state["pending"] = assoc_in(state["pending"], (order_id,), {
            "items": payload["items"], "awaiting": len(payload["items"]),
            "confirmed": [], "ext": payload["ext"], "external": True,
            "reply_shard": payload["reply_shard"]})
        self._request_stock(context, "allocate", order_id, payload["items"])

    def _allocate_result(self, context, payload):
        pending = self._collect_stock_reply(payload, context.state)
        if pending is None:
            return
        order_id = payload["order_id"]
        self._take_pending(context.state, order_id)
        if not pending["confirmed"]:
            # Nothing allocated: un-register the dedup entry so a later
            # submit can retry from scratch.
            context.send("ingestion", pending["reply_shard"], {
                "kind": "release", "key": pending["ext"]})
            context.egress("submit_external",
                           {"status": "rejected", "reason": "no_stock",
                            "order_id": order_id})
            return
        state, order = order_logic.assemble(
            context.state, order_id, pending["confirmed"],
            context.worker.env.now, ext=pending["ext"])
        context.state = order_logic.set_status(
            state, order_id, OrderStatus.PAYMENT_PROCESSED,
            context.worker.env.now)
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

    # -- return/refund compensation saga ----------------------------------
    def _request_return(self, context, payload):
        order_id = payload["order_id"]
        state = context.state
        refusal = order_logic.return_refusal(state, order_id)
        if refusal is not None:
            context.egress("request_return", refusal)
            return
        state = order_logic.set_status(
            state, order_id, OrderStatus.RETURN_REQUESTED,
            context.worker.env.now)
        state["pending"] = assoc_in(
            state["pending"], (f"return:{order_id}",),
            {"outcome": lifecycle.disposition(order_id)})
        context.state = state
        context.send("payment", order_id, {
            "kind": "refund", "order_id": order_id,
            "reply_to": context.key})

    def _refund_result(self, context, payload):
        order_id = payload["order_id"]
        pending = self._take_pending(context.state, f"return:{order_id}")
        if pending is None:
            return
        if not payload["ok"]:
            # Order stays in RETURN_REQUESTED — the audit counts it.
            context.egress("request_return",
                           {"status": "failed",
                            "reason": "refund_unreachable",
                            "order_id": order_id})
            return
        outcome = pending["outcome"]
        state = context.state
        for hop in lifecycle.return_hops(outcome)[1:]:
            state = order_logic.set_status(state, order_id, hop,
                                           context.worker.env.now)
        context.state = state
        order = state["orders"][order_id]
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

    # -- phase 2: payment -------------------------------------------------
    def _payment_result(self, context, payload):
        order_id = payload["order_id"]
        pending = self._take_pending(context.state, order_id)
        if pending is None:
            return
        order = pending["order"]
        sellers = order_logic.seller_ids(order)
        now = context.worker.env.now
        if not payload["approved"]:
            for item in pending["confirmed"]:
                key = f"{item['seller_id']}/{item['product_id']}"
                context.send("stock", key, {
                    "kind": "cancel", "quantity": item["quantity"]})
            state = order_logic.set_status(
                context.state, order_id, OrderStatus.PAYMENT_FAILED, now)
            context.state = order_logic.set_status(
                state, order_id, OrderStatus.CANCELED, now)
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
                            "total_cents": order["total_cents"]})
            return
        for item in pending["confirmed"]:
            key = f"{item['seller_id']}/{item['product_id']}"
            context.send("stock", key, {
                "kind": "confirm", "quantity": item["quantity"]})
        context.state = order_logic.set_status(
            context.state, order_id, OrderStatus.PAYMENT_PROCESSED, now)
        for seller_id in sellers:
            context.send("seller", str(seller_id), {
                "kind": "update_entry_status", "order_id": order_id,
                "status": OrderStatus.PAYMENT_PROCESSED})
        context.send("customer", context.key, {
            "kind": "record_payment",
            "amount_cents": order["total_cents"], "approved": True})
        context.send("shipment", self.app.shipment_partition(order_id), {
            "kind": "create", "order": order})

    # -- phase 3: shipment / delivery --------------------------------------
    def _record_shipment(self, context, payload):
        if payload["order_id"] in context.state["orders"]:
            context.state = order_logic.record_shipment(
                context.state, payload["order_id"],
                payload["package_count"], context.worker.env.now)

    def _record_delivery(self, context, payload):
        order_id = payload["order_id"]
        if order_id not in context.state["orders"]:
            return
        context.state, completed = order_logic.record_delivery(
            context.state, order_id, context.worker.env.now)
        if completed:
            order = context.state["orders"][order_id]
            for seller_id in order_logic.seller_ids(order):
                context.send("seller", str(seller_id), {
                    "kind": "update_entry_status", "order_id": order_id,
                    "status": OrderStatus.COMPLETED})
            context.send("customer", context.key,
                         {"kind": "record_delivery"})

    @staticmethod
    def _take_pending(state, pending_id):
        """Remove and return the in-flight entry ``pending_id`` (None
        when absent)."""
        pending = state["pending"].get(pending_id)
        if pending is not None:
            state["pending"] = dissoc_in(state["pending"], (pending_id,))
        return pending


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
            context.state = payment = payment_logic.authorize(
                payment, self.app.config.approval_rate)
            context.send("order", payload["reply_to"], {
                "kind": "payment_result", "order_id": order["order_id"],
                "approved": payment_logic.is_approved(payment)})
        elif kind == "refund":
            state = context.state
            done = bool(state) and payment_logic.is_approved(state)
            if done:
                context.state = payment_logic.refund(state)
            context.send("order", payload["reply_to"], {
                "kind": "refund_result", "order_id": payload["order_id"],
                "ok": done})
        return None


class ShipmentFn(_AppFunction):
    """Shipment partition; completes the checkout egress."""

    def invoke(self, context: Context, payload: dict):
        kind = payload["kind"]
        if not context.state:
            context.state = shipment_logic.new_shipments()
        state = context.state
        if kind == "create":
            order = payload["order"]
            if order["order_id"] in state["shipments"]:
                return None
            context.state, shipment = shipment_logic.create_shipment(
                state, order["order_id"], order["customer_id"],
                order["items"], context.worker.env.now)
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
                                "invoice": order["invoice"],
                                "total_cents": order["total_cents"]})
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
            context.state, package = shipment_logic.mark_delivered(
                state, payload["order_id"], payload["package_id"],
                context.worker.env.now)
            context.send("order", str(existing["customer_id"]), {
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
        if kind == "update_delivery":
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
        if not context.state:
            context.state = customer_logic.new_customer(int(context.key))
        state = context.state
        kind = payload["kind"]
        if kind == "record_payment":
            context.state = customer_logic.record_payment(
                state, payload["amount_cents"], payload["approved"])
        elif kind == "record_delivery":
            context.state = customer_logic.record_delivery(state)
        elif kind == "record_refund":
            context.state = customer_logic.record_refund(
                state, payload["amount_cents"])
        return None


class SellerFn(_AppFunction):
    """Seller dashboard view plus the two dashboard queries."""

    def invoke(self, context: Context, payload: dict):
        if not context.state:
            context.state = seller_logic.new_seller(int(context.key))
        state = context.state
        kind = payload["kind"]
        if kind == "upsert_entry":
            self.app.record_event(payload["order"]["order_id"],
                                  "order_created")
            context.state = seller_logic.upsert_entry(state,
                                                      payload["order"])
        elif kind == "update_entry_status":
            self.app.record_event(
                payload["order_id"],
                _STATUS_TO_EVENT.get(payload["status"],
                                     payload["status"]))
            context.state = seller_logic.update_entry_status(
                state, payload["order_id"], payload["status"],
                context.worker.env.now)
        elif kind == "record_return":
            self.app.record_event(payload["order_id"], "order_returned")
            context.state = seller_logic.record_return(
                state, payload["amount_cents"])
        elif kind == "dashboard_amount":
            context.egress(kind, {"amount_cents":
                                  seller_logic.dashboard_amount(state)})
        elif kind == "dashboard_entries":
            context.egress(kind, {"entries":
                                  seller_logic.dashboard_entries(state)})
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
        if not context.state:
            context.state = ingestion_logic.new_registry(context.key)
        if kind == "submit_external":
            key = ingestion_logic.dedup_key(
                payload["platform"], payload["shop_id"],
                payload["ext_order_no"])
            context.state, order_id, created = ingestion_logic.register(
                context.state, key)
            if not created:
                context.egress("submit_external",
                               {"status": "ok", "order_id": order_id,
                                "idempotent": True})
                return None
            context.send("order", str(payload["customer_id"]), {
                "kind": "ingest_external", "order_id": order_id,
                "items": payload["items"], "ext": key,
                "reply_shard": context.key})
        elif kind == "release":
            # The order side rejected the ingest (no stock): drop the
            # registration so a later submit can retry.
            context.state = ingestion_logic.release(context.state,
                                                    payload["key"])
        return None


#: Seller-entry status changes mapped back to the lifecycle event that
#: caused them (for the event-ordering audit log).
_STATUS_TO_EVENT = {status: kind
                    for kind, status in seller_logic.EVENT_STATUS.items()}

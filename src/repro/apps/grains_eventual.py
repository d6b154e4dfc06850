"""Grain classes of the eventually-consistent implementation.

State lives in plain grain memory; cross-service effects are either
awaited calls (stock reservation, payment) or fire-and-forget ``tell``s
and unordered broker events (stock confirmation, shipment creation,
statistics).  Nothing is transactional: a lost message or an ill-timed
interleaving leaves partial effects behind — precisely the anomalies
the benchmark's criteria are designed to expose.
"""

from __future__ import annotations

from repro.actors import Grain
from repro.apps.base import _safe_call
from repro.marketplace.constants import OrderStatus, Topics
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


class _StateGrain(Grain):
    """A grain whose whole state is ``data``, so it pages out under an
    activation budget.  A grain that creates its state on first use
    (:meth:`_ensure`) names its constructor of the grain key
    ``new_state``."""

    paged_attr = "data"
    new_state = None
    data: dict | None = None

    def _ensure(self) -> dict:
        if self.data is None:
            self.data = self.new_state(self.key)
        return self.data


def _writer(update):
    """A grain method that sets ``data = update(data, *args)`` and
    answers True.  With no record it starts from ``new_state(key)``,
    or answers False on a grain with no ``new_state``.  (``_ensure``
    is inlined: a write costs its own frame and the updater's.)"""
    def write(self, *args):
        data = self.data
        if data is None:
            if self.new_state is None:
                return False
            data = self.new_state(self.key)
        self.data = update(data, *args)
        return True
    return write


class ProductGrain(_StateGrain):
    """Authoritative product record (source of truth for price)."""

    def update_price(self, price_cents: int):
        if self.data is None or not self.data["active"]:
            return {"status": "rejected", "reason": "inactive"}
        self.data = product_logic.update_price(self.data, price_cents)
        self.publish(Topics.PRICE_UPDATES, self.key, {
            "kind": "price_updated", "key": self.key,
            "price_cents": price_cents, "version": self.data["version"],
        })
        return {"version": self.data["version"]}

    def delete_product(self):
        if self.data is None or not self.data["active"]:
            return {"status": "rejected", "reason": "inactive"}
        self.data = product_logic.delete(self.data)
        self.publish(Topics.PRICE_UPDATES, self.key, {
            "kind": "product_deleted", "key": self.key,
            "version": self.data["version"],
        })
        return {"version": self.data["version"]}


class ReplicaGrain(_StateGrain):
    """Cart-side replica of product price/existence (eventually fresh)."""

    def get_price(self):
        if self.data is None or not self.data["active"]:
            return None
        return dict(self.data)

    def apply_update(self, price_cents: int, version: int):
        if self.data is None:
            self.data = {"price_cents": price_cents, "version": version,
                         "active": True}
            return True
        if self.data["version"] >= version:
            return False  # stale event: last-writer-wins
        self.data = {**self.data, "price_cents": price_cents,
                     "version": version}
        return True

    def apply_delete(self, version: int):
        if self.data is None or self.data["version"] >= version:
            return False
        self.data = {**self.data, "active": False, "version": version}
        return True


class StockGrain(_StateGrain):
    """Inventory item with the reserve/confirm/cancel protocol."""

    def reserve(self, quantity: int):
        if self.data is None:
            return False
        self.data, ok = stock_logic.reserve(self.data, quantity)
        return ok

    confirm = _writer(stock_logic.confirm_reservation)
    cancel = _writer(stock_logic.cancel_reservation)

    def allocate(self, quantity: int):
        """Reserve-and-confirm in one step (external orders)."""
        if self.data is None or not self.data.get("active", True):
            return False
        available = self.data["qty_available"] - self.data["qty_reserved"]
        if available < quantity:
            return False
        self.data = {**self.data,
                     "qty_available": self.data["qty_available"] - quantity}
        return True

    #: Hand returned units back (return-saga compensation).
    restock = _writer(stock_logic.restock)
    deactivate = _writer(stock_logic.deactivate)


class CartGrain(_StateGrain):
    """Per-customer cart; prices come from the cart-side replicas."""

    new_state = staticmethod(
        lambda key: cart_logic.new_cart(int(key)))

    def add_item(self, seller_id: int, product_id: int, quantity: int,
                 voucher_cents: int = 0):
        self._ensure()
        key = f"{seller_id}/{product_id}"
        replica = self.cluster.grain_ref(ReplicaGrain, key)
        price = yield from _safe_call(self.call(replica, "get_price"))
        if price is None:
            return {"status": "rejected", "reason": "unavailable"}
        self.data = cart_logic.add_item(self.data, {
            "seller_id": seller_id, "product_id": product_id,
            "quantity": quantity,
            "unit_price_cents": price["price_cents"],
            "price_version": price["version"],
            "voucher_cents": voucher_cents,
        })
        return {"price_version": price["version"]}

    def checkout(self, order_id: str, payment_method: str):
        self._ensure()
        try:
            self.data, items = cart_logic.seal_for_checkout(self.data)
        except ValueError:
            return {"status": "rejected", "reason": "empty_cart",
                    "order_id": order_id}
        orders = self.cluster.grain_ref(OrderGrain, self.key)
        result = yield from _safe_call(self.call(
            orders, "place_order", order_id, items, payment_method))
        if result is None:
            return {"status": "failed", "reason": "order_unreachable",
                    "order_id": order_id}
        return result


class OrderGrain(_StateGrain):
    """Per-customer order manager: the order-placement orchestrator."""

    new_state = staticmethod(
        lambda key: order_logic.new_customer_orders(int(key)))

    # ------------------------------------------------------------------
    def place_order(self, order_id: str, items: list[dict],
                    payment_method: str | None = None,
                    ext: str | None = None):
        """Place an order: a checkout, or with ``ext`` a prepaid
        external-platform order.

        A checkout reserves stock, awaits the payment and then confirms
        the reservations; an external order allocates stock in one step
        (no dangling reservations) and skips the payment.  Past that,
        both run the same droppable, unordered downstream effects.
        """
        app = self.cluster.app
        self._ensure()
        # 1. Reserve (or allocate) stock for every item: parallel
        #    awaited calls.
        verb = "reserve" if ext is None else "allocate"
        outcomes = yield self.env.all_of([
            self.env.process(_safe_call(self.call(
                self.cluster.grain_ref(
                    StockGrain, f"{item['seller_id']}/{item['product_id']}"),
                verb, item["quantity"])))
            for item in items])
        flags = list(outcomes.values())
        confirmed = [item for item, flag in zip(items, flags) if flag]
        if not confirmed:
            return {"status": "rejected", "reason": "no_stock",
                    "order_id": order_id}
        # 2. Assemble the order (invoice, totals).
        self.data, order = order_logic.assemble(
            self.data, order_id, confirmed, self.env.now, ext=ext)
        sellers = order_logic.seller_ids(order)
        created = self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "order_created", "order": order, "sellers": sellers})
        # 3. Process a checkout's payment synchronously.
        if ext is None:
            payment_ref = self.cluster.grain_ref(PaymentGrain, order_id)
            payment = yield from _safe_call(self.call(
                payment_ref, "process", order, payment_method,
                app.config.approval_rate))
            if payment is None or not payment_logic.is_approved(payment):
                # Roll back reservations (fire-and-forget: may be lost).
                for item in confirmed:
                    self.cluster.grain_ref(
                        StockGrain,
                        f"{item['seller_id']}/{item['product_id']}").tell(
                            "cancel", item["quantity"])
                # Close the compensation chain locally: a failed payment
                # cancels the order (the stock cancels above may be lost
                # — that gap is what the criteria audit measures).
                for status in (OrderStatus.PAYMENT_FAILED,
                               OrderStatus.CANCELED):
                    self.data = order_logic.set_status(
                        self.data, order_id, status, self.env.now)
                self.cluster.grain_ref(CustomerGrain, self.key).tell(
                    "record_payment", order["total_cents"], False)
                self.publish(Topics.ORDER_EVENTS, order_id, {
                    "kind": "payment_failed", "order_id": order_id,
                    "customer_id": order["customer_id"],
                    "sellers": sellers},
                    causal_deps=[created.sequence])
                return {"status": "failed", "reason": "payment",
                        "order_id": order_id,
                        "total_cents": order["total_cents"]}
        # 4. Paid: async effects (all droppable/unordered).
        self.data = order_logic.set_status(
            self.data, order_id, OrderStatus.PAYMENT_PROCESSED,
            self.env.now)
        paid = self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "payment_confirmed", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": sellers,
            "amount_cents": order["total_cents"]},
            causal_deps=[created.sequence])
        if ext is None:
            for item in confirmed:
                self.cluster.grain_ref(
                    StockGrain,
                    f"{item['seller_id']}/{item['product_id']}").tell(
                        "confirm", item["quantity"])
        shipment_ref = self.cluster.grain_ref(
            ShipmentGrain, app.shipment_partition(order_id))
        shipment_ref.tell("create", order, paid.sequence)
        self.cluster.grain_ref(CustomerGrain, self.key).tell(
            "record_payment", order["total_cents"], True)
        return {"status": "ok", "order_id": order_id,
                "invoice": order["invoice"],
                "total_cents": order["total_cents"]}

    def request_return(self, order_id: str):
        """Return/refund as a compensating event chain.

        The refund is awaited (the saga must not proceed without it);
        restocks, the seller ledger reversal and the customer refund
        ride on fire-and-forget tells and unordered events.  A dropped
        refund call strands the order in RETURN_REQUESTED — the
        anomaly window the criteria audit quantifies.
        """
        refusal = order_logic.return_refusal(self._ensure(), order_id)
        if refusal is not None:
            return refusal
        order = self.data["orders"][order_id]
        outcome = lifecycle.disposition(order_id)
        self.data = order_logic.set_status(
            self.data, order_id, OrderStatus.RETURN_REQUESTED,
            self.env.now)
        sellers = order_logic.seller_ids(order)
        requested = self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "return_requested", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": sellers})
        payment_ref = self.cluster.grain_ref(PaymentGrain, order_id)
        refunded = yield from _safe_call(self.call(payment_ref, "refund"))
        if not refunded:
            return {"status": "failed", "reason": "refund_unreachable",
                    "order_id": order_id}
        for hop in lifecycle.return_hops(outcome)[1:]:
            self.data = order_logic.set_status(self.data, order_id, hop,
                                               self.env.now)
        if outcome != OrderStatus.DEFECT:
            for item in order["items"]:
                self.cluster.grain_ref(
                    StockGrain,
                    f"{item['seller_id']}/{item['product_id']}").tell(
                        "restock", item["quantity"])
        self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "order_returned", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": sellers,
            "order": order, "outcome": outcome},
            causal_deps=[requested.sequence])
        self.cluster.grain_ref(CustomerGrain, self.key).tell(
            "record_refund", order["total_cents"])
        return {"status": "ok", "order_id": order_id, "outcome": outcome,
                "refund_cents": order["total_cents"]}

    # ------------------------------------------------------------------
    def record_shipment(self, order_id: str, package_count: int):
        self._ensure()
        if order_id not in self.data["orders"]:
            return False
        self.data = order_logic.record_shipment(
            self.data, order_id, package_count, self.env.now)
        return True

    def record_delivery(self, order_id: str, event_sequence: int = 0):
        self._ensure()
        if order_id not in self.data["orders"]:
            return False
        self.data, completed = order_logic.record_delivery(
            self.data, order_id, self.env.now)
        if completed:
            order = self.data["orders"][order_id]
            self.publish(Topics.ORDER_EVENTS, order_id, {
                "kind": "order_completed", "order_id": order_id,
                "customer_id": self.data["customer_id"],
                "sellers": order_logic.seller_ids(order)},
                causal_deps=[event_sequence] if event_sequence else ())
            self.cluster.grain_ref(CustomerGrain, self.key).tell(
                "record_delivery")
        return completed


class PaymentGrain(_StateGrain):
    """Per-order payment processor."""

    def process(self, order: dict, method: str, approval_rate: float):
        payment = payment_logic.build_payment(
            order["order_id"], order["customer_id"],
            order["total_cents"], method, self.env.now)
        self.data = payment_logic.authorize(payment, approval_rate)
        return dict(self.data)

    def refund(self):
        if self.data is None or not payment_logic.is_approved(self.data):
            return False
        self.data = payment_logic.refund(self.data)
        return True


class ShipmentGrain(_StateGrain):
    """A shipment partition holding many orders' packages."""

    def __init__(self) -> None:
        self.data = shipment_logic.new_shipments()

    def create(self, order: dict, payment_sequence: int):
        if order["order_id"] in self.data["shipments"]:
            return False
        self.data, shipment = shipment_logic.create_shipment(
            self.data, order["order_id"], order["customer_id"],
            order["items"], self.env.now)
        count = len(shipment["packages"])
        self.cluster.grain_ref(OrderGrain, str(order["customer_id"])).tell(
            "record_shipment", order["order_id"], count)
        self.publish(Topics.ORDER_EVENTS, order["order_id"], {
            "kind": "shipment_notification", "order_id": order["order_id"],
            "customer_id": order["customer_id"], "package_count": count,
            "sellers": order_logic.seller_ids(order)},
            causal_deps=[payment_sequence])
        return True

    def undelivered_seller_times(self):
        return shipment_logic.undelivered_seller_times(self.data)

    def oldest_package(self, seller_id: int):
        return shipment_logic.oldest_undelivered_package(self.data,
                                                         seller_id)

    def mark_delivered(self, order_id: str, package_id: str):
        try:
            self.data, package = shipment_logic.mark_delivered(
                self.data, order_id, package_id, self.env.now)
        except KeyError:
            return False
        shipment = self.data["shipments"][order_id]
        delivery = self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "delivery_notification", "order_id": order_id,
            "seller_id": package["seller_id"], "sellers": [],
            "package_id": package_id})
        self.cluster.grain_ref(OrderGrain, str(shipment["customer_id"])).tell(
            "record_delivery", order_id, delivery.sequence)
        return True


class CustomerGrain(_StateGrain):
    """Customer profile and running statistics."""

    new_state = staticmethod(
        lambda key: customer_logic.new_customer(int(key)))

    record_payment = _writer(customer_logic.record_payment)
    record_delivery = _writer(customer_logic.record_delivery)
    record_refund = _writer(customer_logic.record_refund)


class SellerGrain(_StateGrain):
    """Seller profile plus the dashboard's materialised view."""

    new_state = staticmethod(
        lambda key: seller_logic.new_seller(int(key)))

    def apply_order_event(self, payload: dict):
        """Entry maintenance driven by the order-events topic."""
        self._ensure()
        kind = payload["kind"]
        status = seller_logic.EVENT_STATUS.get(kind)
        if status is not None:
            self.data = seller_logic.update_entry_status(
                self.data, payload["order_id"], status, self.env.now)
        elif kind == "order_created":
            self.data = seller_logic.upsert_entry(self.data,
                                                  payload["order"])
        elif kind == "order_returned":
            amount = seller_logic.seller_share_cents(
                payload["order"], self.data["seller_id"])
            if amount:
                self.data = seller_logic.record_return(self.data, amount)
        return True

    def dashboard_amount(self):
        """Dashboard query 1: total in-progress amount."""
        return seller_logic.dashboard_amount(self._ensure())

    def dashboard_entries(self):
        """Dashboard query 2: the tuples behind query 1."""
        return seller_logic.dashboard_entries(self._ensure())


class IngestionGrain(_StateGrain):
    """Dedup registry shard for one external ``(platform, shop_id)``.

    Registration is grain-local, but order creation is a separate
    at-least-once call: when it times out the grain retries with a
    fresh internal order id.  If the first attempt actually committed
    and only its reply was lost, the retry mints a *duplicate* order
    (and decrements stock twice) — the exactly-once anomaly the C6
    audit quantifies on this stack.
    """

    new_state = staticmethod(ingestion_logic.new_registry)

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        self._ensure()
        key = ingestion_logic.dedup_key(platform, shop_id, ext_order_no)
        self.data, order_id, created = ingestion_logic.register(
            self.data, key)
        if not created:
            return {"status": "ok", "order_id": order_id,
                    "idempotent": True}
        order_ref = self.cluster.grain_ref(OrderGrain, str(customer_id))
        result = yield from _safe_call(self.call(
            order_ref, "place_order", order_id, items, ext=key))
        if result is None:
            retry_id = f"{order_id}.r1"
            result = yield from _safe_call(self.call(
                order_ref, "place_order", retry_id, items, ext=key))
            if result is None:
                # Registered but (as far as we know) never created: an
                # orphaned registration the audit counts.
                return {"status": "failed", "reason": "order_unreachable",
                        "order_id": order_id}
        if result.get("status") != "ok":
            # Nothing was created: roll the local registration back so
            # a later submit can retry from scratch.
            self.data = ingestion_logic.release(self.data, key)
            return {"status": "rejected",
                    "reason": result.get("reason", "rejected"),
                    "order_id": order_id}
        if result["order_id"] != order_id:
            self.data = ingestion_logic.rebind(self.data, key,
                                               result["order_id"])
        return {"status": "ok", "order_id": result["order_id"],
                "idempotent": False, "invoice": result["invoice"],
                "total_cents": result["total_cents"]}


#: Grain classes registered by the eventual app, keyed by service name.
EVENTUAL_GRAINS: dict[str, type[Grain]] = {
    "product": ProductGrain,
    "replica": ReplicaGrain,
    "stock": StockGrain,
    "cart": CartGrain,
    "order": OrderGrain,
    "payment": PaymentGrain,
    "shipment": ShipmentGrain,
    "customer": CustomerGrain,
    "seller": SellerGrain,
    "ingestion": IngestionGrain,
}

"""Grain classes of the ACID-transactional implementation.

Every grain's state is guarded by a :class:`TransactionParticipant`
(strict 2PL, wait-die); the checkout, delivery, return and ingestion
operations run as distributed transactions committed with 2PC.  A
payment decline compensates inside the same transaction (stock release
+ a PAYMENT_FAILED -> CANCELED order tombstone), so the unhappy paths
are exactly as atomic as the happy one.
"""

from __future__ import annotations

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
from repro.txn import TransactionalGrain


def _writer(update, new_state=None):
    """A grain method that stages ``update(state, *args)`` and answers
    True.  With no record it starts from ``new_state(int(key))``, or
    answers False (staging nothing) when ``new_state`` is None."""
    def write(self, *args):
        state = yield from self.txn_read()
        if not state:
            if new_state is None:
                return False
            state = new_state(int(self.key))
        yield from self.txn_write(update(state, *args))
        return True
    return write


def _reader(query, default):
    """A grain method that answers ``query(state, *args)``, or
    ``default`` with no record.  ``default`` is returned as it is, so
    it must be a value nothing mutates."""
    def read(self, *args):
        state = yield from self.txn_read()
        if not state:
            return default
        return query(state, *args)
    return read


class TxnProductGrain(TransactionalGrain):
    """Authoritative product record under transactional state."""

    def update_price(self, price_cents: int):
        state = yield from self.txn_read()
        if not state or not state["active"]:
            return {"status": "rejected", "reason": "inactive"}
        state = product_logic.update_price(state, price_cents)
        yield from self.txn_write(state)
        self.publish(Topics.PRICE_UPDATES, self.key, {
            "kind": "price_updated", "key": self.key,
            "price_cents": price_cents, "version": state["version"]})
        return {"version": state["version"]}

    def delete_product(self):
        state = yield from self.txn_read()
        if not state or not state["active"]:
            return {"status": "rejected", "reason": "inactive"}
        state = product_logic.delete(state)
        yield from self.txn_write(state)
        # Deactivate the stock item inside the same transaction —
        # referential integrity is enforced, not hoped for.
        stock_ref = self.cluster.grain_ref(TxnStockGrain, self.key)
        yield self.call(stock_ref, "deactivate", state["version"])
        self.publish(Topics.PRICE_UPDATES, self.key, {
            "kind": "product_deleted", "key": self.key,
            "version": state["version"]})
        return {"version": state["version"]}


class TxnReplicaGrain(TransactionalGrain):
    """Cart-side replica; still maintained by (eventual) events —
    Orleans Transactions offers no replication primitive (paper §III)."""

    def get_price(self):
        state = yield from self.txn_read()
        if not state or not state.get("active", False):
            return None
        return state

    def apply_update(self, price_cents: int, version: int):
        # Event-driven replica maintenance is non-transactional — the
        # platform has no replication primitive, so writes go straight
        # to committed state (the source of the staleness the paper's
        # replication criterion measures).
        state = self.participant.read_committed()
        if state and state.get("version", 0) >= version:
            return False
        self.non_txn_write({
            "price_cents": price_cents, "version": version,
            "active": state.get("active", True) if state else True})
        return True

    def apply_delete(self, version: int):
        state = self.participant.read_committed()
        if not state or state.get("version", 0) >= version:
            return False
        self.non_txn_write({**state, "active": False, "version": version})
        return True


class TxnStockGrain(TransactionalGrain):
    """Inventory under ACID: checkout decrements atomically."""

    def allocate(self, quantity: int):
        """Reserve-and-confirm in one transactional step."""
        state = yield from self.txn_read()
        if not state or not state.get("active", True):
            return False
        if state["qty_available"] - state["qty_reserved"] < quantity:
            return False
        yield from self.txn_write(
            {**state, "qty_available": state["qty_available"] - quantity})
        return True

    #: Hand allocated units back (compensation: abort or return).
    release = _writer(stock_logic.restock)
    deactivate = _writer(stock_logic.deactivate)


class TxnCartGrain(TransactionalGrain):
    """Per-customer cart under transactional state."""

    def add_item(self, seller_id: int, product_id: int, quantity: int,
                 voucher_cents: int = 0):
        state = yield from self.txn_read()
        if not state:
            state = cart_logic.new_cart(int(self.key))
        key = f"{seller_id}/{product_id}"
        replica = self.cluster.grain_ref(TxnReplicaGrain, key)
        price = yield self.call(replica, "get_price")
        if price is None:
            return {"status": "rejected", "reason": "unavailable"}
        state = cart_logic.add_item(state, {
            "seller_id": seller_id, "product_id": product_id,
            "quantity": quantity,
            "unit_price_cents": price["price_cents"],
            "price_version": price["version"],
            "voucher_cents": voucher_cents})
        yield from self.txn_write(state)
        return {"price_version": price["version"]}

    def checkout(self, order_id: str, payment_method: str):
        state = yield from self.txn_read()
        if not state:
            state = cart_logic.new_cart(int(self.key))
        try:
            state, items = cart_logic.seal_for_checkout(state)
        except ValueError:
            return {"status": "rejected", "reason": "empty_cart",
                    "order_id": order_id}
        yield from self.txn_write(state)
        orders = self.cluster.grain_ref(TxnOrderGrain, self.key)
        result = yield self.call(orders, "place_order", order_id, items,
                                 payment_method)
        return result


class TxnOrderGrain(TransactionalGrain):
    """Order orchestrator: every effect inside one transaction."""

    def place_order(self, order_id: str, items: list[dict],
                    payment_method: str | None = None,
                    ext: str | None = None):
        """Place an order: a checkout, or with ``ext`` a prepaid
        external-platform order, which skips the payment step.

        Stock allocation, payment, shipment, seller entries and customer
        statistics all commit in the caller's one transaction (for an
        external order, together with the dedup registration).
        """
        app = self.cluster.app
        state = yield from self.txn_read()
        if not state:
            state = order_logic.new_customer_orders(int(self.key))
        # 1. Allocate stock transactionally (sequential: lock ordering
        #    by product key avoids pointless wait-die churn).
        confirmed = []
        for item in sorted(items, key=lambda entry:
                           (entry["seller_id"], entry["product_id"])):
            ref = self.cluster.grain_ref(
                TxnStockGrain, f"{item['seller_id']}/{item['product_id']}")
            granted = yield self.call(ref, "allocate", item["quantity"])
            if granted:
                confirmed.append(item)
        if not confirmed:
            return {"status": "rejected", "reason": "no_stock",
                    "order_id": order_id}
        # 2. Assemble order.
        state, order = order_logic.assemble(state, order_id, confirmed,
                                            self.env.now, ext=ext)
        # 3. Payment inside the transaction (an external order arrives
        #    prepaid); declines abort everything.
        if ext is None:
            payment_ref = self.cluster.grain_ref(TxnPaymentGrain, order_id)
            payment = yield self.call(payment_ref, "process", order,
                                      payment_method,
                                      app.config.approval_rate)
            if not payment_logic.is_approved(payment):
                # Payment-failure abort as an explicit compensation
                # inside the same ACID transaction: hand the allocated
                # stock back and keep the order as an auditable
                # PAYMENT_FAILED -> CANCELED tombstone (all-or-nothing
                # with the release).
                for item in confirmed:
                    ref = self.cluster.grain_ref(
                        TxnStockGrain,
                        f"{item['seller_id']}/{item['product_id']}")
                    yield self.call(ref, "release", item["quantity"])
                for status in (OrderStatus.PAYMENT_FAILED,
                               OrderStatus.CANCELED):
                    state = order_logic.set_status(state, order_id, status,
                                                   self.env.now)
                yield from self.txn_write(state)
                customer_ref = self.cluster.grain_ref(TxnCustomerGrain,
                                                      self.key)
                yield self.call(customer_ref, "record_payment",
                                order["total_cents"], False)
                self.publish(Topics.ORDER_EVENTS, order_id, {
                    "kind": "payment_failed", "order_id": order_id,
                    "customer_id": order["customer_id"], "sellers": [],
                    "amount_cents": order["total_cents"]})
                return {"status": "failed", "reason": "payment",
                        "order_id": order_id,
                        "total_cents": order["total_cents"]}
        state = order_logic.set_status(
            state, order_id, OrderStatus.PAYMENT_PROCESSED, self.env.now)
        # 4. Shipment, seller dashboard entries and customer statistics —
        #    all participants of the same transaction.
        shipment_ref = self.cluster.grain_ref(
            TxnShipmentGrain, app.shipment_partition(order_id))
        package_count = yield self.call(shipment_ref, "create", order)
        state = order_logic.record_shipment(state, order_id,
                                            package_count, self.env.now)
        yield from self.txn_write(state)
        for seller_id in order_logic.seller_ids(order):
            seller_ref = self.cluster.grain_ref(TxnSellerGrain, str(seller_id))
            yield self.call(seller_ref, "upsert_entry",
                            {**order, "status": OrderStatus.IN_TRANSIT})
        customer_ref = self.cluster.grain_ref(TxnCustomerGrain, self.key)
        yield self.call(customer_ref, "record_payment",
                        order["total_cents"], True)
        # Events still published (unordered) for external consumers.
        created = self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "payment_confirmed", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": [],
            "amount_cents": order["total_cents"]})
        self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "shipment_notification", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": [],
            "package_count": package_count},
            causal_deps=[created.sequence])
        return {"status": "ok", "order_id": order_id,
                "invoice": order["invoice"],
                "total_cents": order["total_cents"]}

    def record_delivery(self, order_id: str):
        state = yield from self.txn_read()
        if not state or order_id not in state["orders"]:
            return {"completed": False, "known": False}
        state, completed = order_logic.record_delivery(
            state, order_id, self.env.now)
        yield from self.txn_write(state)
        if completed:
            customer_ref = self.cluster.grain_ref(TxnCustomerGrain, self.key)
            yield self.call(customer_ref, "record_delivery")
        return {"completed": completed, "known": True,
                "sellers": order_logic.seller_ids(
                    state["orders"][order_id])}

    def request_return(self, order_id: str):
        """Return/refund compensation saga as one ACID transaction.

        Restock (unless the return is defective), refund the payment,
        reverse the sellers' recognised revenue and the customer's
        spend — all participants of the same transaction, so the saga
        can never be observed half-applied on this stack.
        """
        state = yield from self.txn_read()
        refusal = order_logic.return_refusal(state, order_id)
        if refusal is not None:
            return refusal
        outcome = lifecycle.disposition(order_id)
        for hop in lifecycle.return_hops(outcome):
            state = order_logic.set_status(state, order_id, hop,
                                           self.env.now)
        yield from self.txn_write(state)
        order = state["orders"][order_id]
        payment_ref = self.cluster.grain_ref(TxnPaymentGrain, order_id)
        yield self.call(payment_ref, "refund")
        if outcome != OrderStatus.DEFECT:
            for item in sorted(order["items"], key=lambda entry:
                               (entry["seller_id"], entry["product_id"])):
                ref = self.cluster.grain_ref(
                    TxnStockGrain,
                    f"{item['seller_id']}/{item['product_id']}")
                yield self.call(ref, "release", item["quantity"])
        for seller_id in order_logic.seller_ids(order):
            amount = seller_logic.seller_share_cents(order, seller_id)
            if amount:
                seller_ref = self.cluster.grain_ref(TxnSellerGrain,
                                                    str(seller_id))
                yield self.call(seller_ref, "record_return", amount)
        customer_ref = self.cluster.grain_ref(TxnCustomerGrain, self.key)
        yield self.call(customer_ref, "record_refund",
                        order["total_cents"])
        created = self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "return_requested", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": []})
        self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "order_returned", "order_id": order_id,
            "customer_id": order["customer_id"], "sellers": [],
            "outcome": outcome},
            causal_deps=[created.sequence])
        return {"status": "ok", "order_id": order_id, "outcome": outcome,
                "refund_cents": order["total_cents"]}


class TxnPaymentGrain(TransactionalGrain):
    """Per-order payment record under transactional state."""

    def process(self, order: dict, method: str, approval_rate: float):
        payment = payment_logic.build_payment(
            order["order_id"], order["customer_id"],
            order["total_cents"], method, self.env.now)
        payment = payment_logic.authorize(payment, approval_rate)
        yield from self.txn_write(payment)
        return payment

    refund = _writer(payment_logic.refund)


class TxnShipmentGrain(TransactionalGrain):
    """Shipment partition under transactional state."""

    def create(self, order: dict):
        state = yield from self.txn_read()
        if not state:
            state = shipment_logic.new_shipments()
        if order["order_id"] in state["shipments"]:
            return len(state["shipments"][order["order_id"]]["packages"])
        state, shipment = shipment_logic.create_shipment(
            state, order["order_id"], order["customer_id"],
            order["items"], self.env.now)
        yield from self.txn_write(state)
        return len(shipment["packages"])

    undelivered_seller_times = _reader(
        shipment_logic.undelivered_seller_times, [])
    oldest_package = _reader(shipment_logic.oldest_undelivered_package, None)

    def mark_delivered(self, order_id: str, package_id: str):
        state = yield from self.txn_read()
        if not state:
            return None
        try:
            state, package = shipment_logic.mark_delivered(
                state, order_id, package_id, self.env.now)
        except KeyError:
            return None
        yield from self.txn_write(state)
        customer_id = state["shipments"][order_id]["customer_id"]
        order_ref = self.cluster.grain_ref(TxnOrderGrain, str(customer_id))
        outcome = yield self.call(order_ref, "record_delivery", order_id)
        if outcome["completed"]:
            # Retire the sellers' dashboard entries in the same txn.
            for seller_id in outcome.get("sellers", []):
                seller_ref = self.cluster.grain_ref(TxnSellerGrain,
                                                    str(seller_id))
                yield self.call(seller_ref, "update_entry_status",
                                order_id, OrderStatus.COMPLETED)
        self.publish(Topics.ORDER_EVENTS, order_id, {
            "kind": "delivery_notification", "order_id": order_id,
            "seller_id": package["seller_id"], "sellers": [],
            "package_id": package_id})
        return {"seller_id": package["seller_id"],
                "completed": outcome["completed"],
                "sellers": outcome.get("sellers", [])}


class TxnCustomerGrain(TransactionalGrain):
    """Customer statistics under transactional state."""

    record_payment = _writer(customer_logic.record_payment,
                             customer_logic.new_customer)
    record_delivery = _writer(customer_logic.record_delivery,
                              customer_logic.new_customer)
    record_refund = _writer(customer_logic.record_refund,
                            customer_logic.new_customer)


class TxnSellerGrain(TransactionalGrain):
    """Seller dashboard view, maintained transactionally."""

    upsert_entry = _writer(seller_logic.upsert_entry, seller_logic.new_seller)

    def update_entry_status(self, order_id: str, status: str):
        state = yield from self.txn_read()
        if not state:
            return False
        yield from self.txn_write(seller_logic.update_entry_status(
            state, order_id, status, self.env.now))
        return True

    record_return = _writer(seller_logic.record_return)
    #: Non-transactional reads: Orleans Transactions has no snapshot
    #: queries, so the dashboard reads committed state directly.
    dashboard_amount = _reader(seller_logic.dashboard_amount, 0)
    dashboard_entries = _reader(seller_logic.dashboard_entries, [])


class TxnIngestionGrain(TransactionalGrain):
    """Dedup registry shard for one external ``(platform, shop_id)``.

    Registration and internal-order creation are participants of the
    same transaction, so a duplicate submit is exactly-once by
    construction: either the key committed with its order, or neither
    exists and a retry starts from scratch.
    """

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        state = yield from self.txn_read()
        if not state:
            state = ingestion_logic.new_registry(self.key)
        key = ingestion_logic.dedup_key(platform, shop_id, ext_order_no)
        state, order_id, created = ingestion_logic.register(state, key)
        if not created:
            return {"status": "ok", "order_id": order_id,
                    "idempotent": True}
        order_ref = self.cluster.grain_ref(TxnOrderGrain, str(customer_id))
        result = yield self.call(order_ref, "place_order", order_id,
                                 items, ext=key)
        if result.get("status") != "ok":
            # No txn_write: the registration is dropped with the rest
            # of the transaction's effects, so a retry can succeed.
            return {"status": "rejected",
                    "reason": result.get("reason", "rejected"),
                    "order_id": order_id}
        yield from self.txn_write(state)
        return {"status": "ok", "order_id": order_id, "idempotent": False,
                "invoice": result["invoice"],
                "total_cents": result["total_cents"]}


#: Grain classes of the transactional app, keyed by service name.
TXN_GRAINS = {
    "product": TxnProductGrain,
    "replica": TxnReplicaGrain,
    "stock": TxnStockGrain,
    "cart": TxnCartGrain,
    "order": TxnOrderGrain,
    "payment": TxnPaymentGrain,
    "shipment": TxnShipmentGrain,
    "customer": TxnCustomerGrain,
    "seller": TxnSellerGrain,
    "ingestion": TxnIngestionGrain,
}

"""Unit tests for the platform-independent marketplace business logic."""

import copy
import json
from types import MappingProxyType

import pytest

from repro.cow import CowState, materialize
from repro.marketplace import logic
from repro.marketplace.constants import (
    OrderStatus,
    PackageStatus,
    PaymentMethod,
    PaymentStatus,
)


def item(seller=1, product=1, qty=2, price=1000, version=1, voucher=0):
    return {"seller_id": seller, "product_id": product, "quantity": qty,
            "unit_price_cents": price, "price_version": version,
            "voucher_cents": voucher}


class TestCart:
    def test_new_cart_is_open_and_empty(self):
        cart = logic.cart.new_cart(7)
        assert cart["status"] == logic.cart.OPEN
        assert len(cart["items"]) == 0

    def test_add_item(self):
        cart = logic.cart.add_item(logic.cart.new_cart(1), item())
        assert len(cart["items"]) == 1
        assert logic.cart.total_cents(cart) == 2000

    def test_add_same_product_merges_quantity(self):
        cart = logic.cart.new_cart(1)
        cart = logic.cart.add_item(cart, item(qty=1))
        cart = logic.cart.add_item(cart, item(qty=2))
        assert len(cart["items"]) == 1
        assert cart["items"]["1/1"]["quantity"] == 3

    def test_checkout_seals_and_clears(self):
        cart = logic.cart.add_item(logic.cart.new_cart(1), item())
        cart, items = logic.cart.seal_for_checkout(cart)
        assert len(items) == 1
        assert len(cart["items"]) == 0
        assert cart["checkouts"] == 1

    def test_checkout_empty_cart_rejected(self):
        with pytest.raises(ValueError):
            logic.cart.seal_for_checkout(logic.cart.new_cart(1))

    def test_voucher_reduces_total_but_not_below_zero(self):
        cart = logic.cart.add_item(
            logic.cart.new_cart(1), item(qty=1, price=100, voucher=500))
        assert logic.cart.total_cents(cart) == 0

    def test_add_item_does_not_mutate_input(self):
        original = logic.cart.new_cart(1)
        logic.cart.add_item(original, item())
        assert len(original["items"]) == 0


class TestStock:
    def test_reserve_succeeds_with_enough_stock(self):
        state = logic.stock.new_item(1, 1, 10)
        state, ok = logic.stock.reserve(state, 3)
        assert ok
        assert state["qty_reserved"] == 3

    def test_reserve_fails_without_enough_free_stock(self):
        state = logic.stock.new_item(1, 1, 5)
        state, _ = logic.stock.reserve(state, 4)
        state, ok = logic.stock.reserve(state, 2)
        assert not ok
        assert state["qty_reserved"] == 4

    def test_reserve_on_inactive_item_fails(self):
        state = logic.stock.deactivate(logic.stock.new_item(1, 1, 10), 2)
        state, ok = logic.stock.reserve(state, 1)
        assert not ok

    def test_reserve_zero_rejected(self):
        with pytest.raises(ValueError):
            logic.stock.reserve(logic.stock.new_item(1, 1, 10), 0)

    def test_confirm_decrements_available_and_reserved(self):
        state = logic.stock.new_item(1, 1, 10)
        state, _ = logic.stock.reserve(state, 3)
        state = logic.stock.confirm_reservation(state, 3)
        assert state["qty_available"] == 7
        assert state["qty_reserved"] == 0

    def test_confirm_more_than_reserved_rejected(self):
        state = logic.stock.new_item(1, 1, 10)
        with pytest.raises(ValueError):
            logic.stock.confirm_reservation(state, 1)

    def test_cancel_releases_reservation(self):
        state = logic.stock.new_item(1, 1, 10)
        state, _ = logic.stock.reserve(state, 3)
        state = logic.stock.cancel_reservation(state, 3)
        assert state["qty_reserved"] == 0
        assert state["qty_available"] == 10

    def test_restock(self):
        state = logic.stock.restock(logic.stock.new_item(1, 1, 10), 5)
        assert state["qty_available"] == 15

    def test_negative_restock_rejected(self):
        with pytest.raises(ValueError):
            logic.stock.restock(logic.stock.new_item(1, 1, 10), -1)

    def test_consistency_invariant(self):
        state = logic.stock.new_item(1, 1, 10)
        assert logic.stock.is_consistent(state)
        state, _ = logic.stock.reserve(state, 10)
        assert logic.stock.is_consistent(state)
        state = logic.stock.confirm_reservation(state, 10)
        assert logic.stock.is_consistent(state)
        assert not logic.stock.is_consistent(
            {"qty_available": -1, "qty_reserved": 0})


class TestOrder:
    def test_assemble_assigns_invoice_and_total(self):
        state = logic.order.new_customer_orders(3)
        state, order = logic.order.assemble(state, "o1", [item()], now=1.0)
        assert order["invoice"] == "3-000001"
        assert order["total_cents"] == 2000
        assert order["status"] == OrderStatus.INVOICED
        assert state["next_order"] == 2

    def test_invoice_sequence_increments(self):
        state = logic.order.new_customer_orders(3)
        state, _ = logic.order.assemble(state, "o1", [item()], now=1.0)
        state, order2 = logic.order.assemble(state, "o2", [item()], now=2.0)
        assert order2["invoice"] == "3-000002"

    def test_assemble_requires_items(self):
        state = logic.order.new_customer_orders(3)
        with pytest.raises(ValueError):
            logic.order.assemble(state, "o1", [], now=1.0)

    def test_duplicate_order_id_rejected(self):
        state = logic.order.new_customer_orders(3)
        state, _ = logic.order.assemble(state, "o1", [item()], now=1.0)
        with pytest.raises(ValueError):
            logic.order.assemble(state, "o1", [item()], now=2.0)

    def test_voucher_respected_in_total(self):
        state = logic.order.new_customer_orders(1)
        state, order = logic.order.assemble(
            state, "o1", [item(qty=1, price=100, voucher=40)], now=0.0)
        assert order["total_cents"] == 60

    def test_seller_ids_distinct_sorted(self):
        state = logic.order.new_customer_orders(1)
        items = [item(seller=5), item(seller=2, product=9), item(seller=5,
                                                                 product=3)]
        state, order = logic.order.assemble(state, "o1", items, now=0.0)
        assert logic.order.seller_ids(order) == [2, 5]

    def test_status_transitions(self):
        state = logic.order.new_customer_orders(1)
        state, _ = logic.order.assemble(state, "o1", [item()], now=0.0)
        state = logic.order.set_status(state, "o1",
                                       OrderStatus.PAYMENT_PROCESSED, 1.0)
        assert state["orders"]["o1"]["status"] == \
            OrderStatus.PAYMENT_PROCESSED

    def test_set_status_unknown_order_raises(self):
        state = logic.order.new_customer_orders(1)
        with pytest.raises(KeyError):
            logic.order.set_status(state, "nope", OrderStatus.CANCELED, 0.0)

    def test_delivery_completion(self):
        state = logic.order.new_customer_orders(1)
        state, _ = logic.order.assemble(
            state, "o1", [item(seller=1), item(seller=2, product=2)],
            now=0.0)
        state = logic.order.set_status(state, "o1",
                                       OrderStatus.PAYMENT_PROCESSED, 0.5)
        state = logic.order.record_shipment(state, "o1", 2, now=1.0)
        state, done = logic.order.record_delivery(state, "o1", now=2.0)
        assert not done
        state, done = logic.order.record_delivery(state, "o1", now=3.0)
        assert done
        assert state["orders"]["o1"]["status"] == OrderStatus.COMPLETED

    def test_delivery_to_a_returned_order_changes_nothing(self):
        """Two racing delivery batches can count one package twice and
        complete an order early; its last package may then arrive after
        the return."""
        state = logic.order.new_customer_orders(1)
        state, _ = logic.order.assemble(
            state, "o1", [item(seller=1), item(seller=2, product=2)],
            now=0.0)
        state = logic.order.set_status(state, "o1",
                                       OrderStatus.PAYMENT_PROCESSED, 0.5)
        state = logic.order.record_shipment(state, "o1", 2, now=1.0)
        for now in (2.0, 3.0):
            state, _ = logic.order.record_delivery(state, "o1", now=now)
        state = logic.order.set_status(state, "o1",
                                       OrderStatus.RETURN_REQUESTED, 4.0)
        returned = logic.order.set_status(state, "o1", OrderStatus.DEFECT,
                                          5.0)
        late, done = logic.order.record_delivery(returned, "o1", now=6.0)
        assert (late, done) == (returned, False)


class TestPayment:
    def test_build_payment_validates_method(self):
        with pytest.raises(ValueError):
            logic.payment.build_payment("o1", 1, 100, "iou", now=0.0)

    def test_build_payment_validates_amount(self):
        with pytest.raises(ValueError):
            logic.payment.build_payment("o1", 1, -1,
                                        PaymentMethod.CREDIT_CARD, now=0.0)

    def test_single_line_for_card(self):
        payment = logic.payment.build_payment(
            "o1", 1, 100, PaymentMethod.CREDIT_CARD, now=0.0)
        assert len(payment["lines"]) == 1
        assert payment["lines"][0]["amount_cents"] == 100

    def test_voucher_splits_lines(self):
        payment = logic.payment.build_payment(
            "o1", 1, 101, PaymentMethod.VOUCHER, now=0.0)
        amounts = [line["amount_cents"] for line in payment["lines"]]
        assert sum(amounts) == 101
        assert len(amounts) == 2

    def test_authorize_full_rate_approves(self):
        payment = logic.payment.build_payment(
            "o1", 1, 100, PaymentMethod.CREDIT_CARD, now=0.0)
        assert logic.payment.is_approved(
            logic.payment.authorize(payment, 1.0))

    def test_authorize_zero_rate_rejects(self):
        payment = logic.payment.build_payment(
            "o1", 1, 100, PaymentMethod.CREDIT_CARD, now=0.0)
        result = logic.payment.authorize(payment, 0.0)
        assert result["status"] == PaymentStatus.FAILED

    def test_authorize_is_deterministic_per_order(self):
        payment = logic.payment.build_payment(
            "oX", 1, 100, PaymentMethod.CREDIT_CARD, now=0.0)
        first = logic.payment.authorize(payment, 0.5)
        second = logic.payment.authorize(payment, 0.5)
        assert first["status"] == second["status"]

    def test_authorize_rate_validation(self):
        payment = logic.payment.build_payment(
            "o1", 1, 100, PaymentMethod.CREDIT_CARD, now=0.0)
        with pytest.raises(ValueError):
            logic.payment.authorize(payment, 1.5)

    def test_partial_rate_approves_a_middling_fraction(self):
        approved = 0
        for i in range(500):
            payment = logic.payment.build_payment(
                f"order-{i}", 1, 100, PaymentMethod.CREDIT_CARD, now=0.0)
            if logic.payment.is_approved(
                    logic.payment.authorize(payment, 0.9)):
                approved += 1
        assert 400 <= approved <= 490


class TestShipment:
    def test_create_shipment_groups_by_seller(self):
        state = logic.shipment.new_shipments()
        items = [item(seller=1), item(seller=2, product=2),
                 item(seller=1, product=3)]
        state, shipment = logic.shipment.create_shipment(
            state, "o1", 9, items, now=1.0)
        assert len(shipment["packages"]) == 2
        sellers = {package["seller_id"]
                   for package in shipment["packages"].values()}
        assert sellers == {1, 2}

    def test_duplicate_shipment_rejected(self):
        state = logic.shipment.new_shipments()
        state, _ = logic.shipment.create_shipment(state, "o1", 9,
                                                  [item()], now=1.0)
        with pytest.raises(ValueError):
            logic.shipment.create_shipment(state, "o1", 9, [item()],
                                           now=2.0)

    def test_empty_shipment_rejected(self):
        with pytest.raises(ValueError):
            logic.shipment.create_shipment(
                logic.shipment.new_shipments(), "o1", 9, [], now=1.0)

    def test_undelivered_sellers_chronological_limit(self):
        state = logic.shipment.new_shipments()
        for index in range(15):
            state, _ = logic.shipment.create_shipment(
                state, f"o{index}", 1, [item(seller=index)],
                now=float(index))
        ranked = logic.shipment.undelivered_seller_times(state)
        # Oldest first: the update-delivery transaction takes the head.
        assert [seller for seller, _ in ranked[:10]] == list(range(10))
        assert [when for _, when in ranked] == sorted(
            when for _, when in ranked)

    def test_oldest_undelivered_package(self):
        state = logic.shipment.new_shipments()
        state, _ = logic.shipment.create_shipment(
            state, "o1", 1, [item(seller=7)], now=5.0)
        state, _ = logic.shipment.create_shipment(
            state, "o2", 2, [item(seller=7)], now=3.0)
        package = logic.shipment.oldest_undelivered_package(state, 7)
        assert package["order_id"] == "o2"

    def test_mark_delivered_progression(self):
        state = logic.shipment.new_shipments()
        state, shipment = logic.shipment.create_shipment(
            state, "o1", 1, [item(seller=7)], now=1.0)
        package_id = next(iter(shipment["packages"]))
        state, package = logic.shipment.mark_delivered(
            state, "o1", package_id, now=2.0)
        assert package["status"] == PackageStatus.DELIVERED
        assert logic.shipment.oldest_undelivered_package(state, 7) is None

    def test_mark_delivered_idempotent(self):
        state = logic.shipment.new_shipments()
        state, shipment = logic.shipment.create_shipment(
            state, "o1", 1, [item(seller=7)], now=1.0)
        package_id = next(iter(shipment["packages"]))
        state, _ = logic.shipment.mark_delivered(state, "o1", package_id,
                                                 now=2.0)
        state2, package = logic.shipment.mark_delivered(
            state, "o1", package_id, now=3.0)
        assert state2 is state
        assert package["delivered_at"] == 2.0

    def test_mark_delivered_unknown_raises(self):
        state = logic.shipment.new_shipments()
        with pytest.raises(KeyError):
            logic.shipment.mark_delivered(state, "o1", "pkg-1", now=1.0)


    def test_package_count(self):
        state = logic.shipment.new_shipments()
        state, _ = logic.shipment.create_shipment(
            state, "o1", 1, [item(seller=1), item(seller=2, product=2)],
            now=1.0)
        # One package per seller.
        assert len(state["shipments"]["o1"]["packages"]) == 2
        assert "other" not in state["shipments"]


class TestCustomerSellerStats:
    def test_customer_stats_accumulate(self):
        state = logic.customer.new_customer(1, "alice")
        state = logic.customer.record_payment(state, 500, approved=True)
        state = logic.customer.record_payment(state, 300, approved=False)
        state = logic.customer.record_delivery(state)
        assert state["payments_succeeded"] == 1
        assert state["payments_failed"] == 1
        assert state["deliveries"] == 1
        assert state["spent_cents"] == 500
        assert state["payments_failed"] == 1
        assert state["deliveries"] == 1

    def make_order(self, status=OrderStatus.INVOICED):
        return {"order_id": "o1", "customer_id": 9, "status": status,
                "updated_at": 1.0,
                "items": [item(seller=5, qty=2, price=100),
                          item(seller=6, product=2, qty=1, price=999)]}

    def test_seller_share_only_counts_own_items(self):
        order = self.make_order()
        assert logic.seller.seller_share_cents(order, 5) == 200
        assert logic.seller.seller_share_cents(order, 6) == 999
        assert logic.seller.seller_share_cents(order, 7) == 0

    def test_upsert_entry_and_dashboard(self):
        state = logic.seller.new_seller(5)
        state = logic.seller.upsert_entry(state, self.make_order())
        assert logic.seller.dashboard_amount(state) == 200
        entries = logic.seller.dashboard_entries(state)
        assert len(entries) == 1
        assert entries[0]["order_id"] == "o1"

    def test_upsert_ignores_orders_without_seller_items(self):
        state = logic.seller.new_seller(42)
        state = logic.seller.upsert_entry(state, self.make_order())
        assert logic.seller.dashboard_amount(state) == 0

    def test_completed_order_retires_entry_into_revenue(self):
        state = logic.seller.new_seller(5)
        state = logic.seller.upsert_entry(state, self.make_order())
        state = logic.seller.update_entry_status(
            state, "o1", OrderStatus.COMPLETED, 2.0)
        assert logic.seller.dashboard_amount(state) == 0
        assert state["revenue_cents"] == 200
        assert state["deliveries"] == 1

    def test_canceled_order_retires_without_revenue(self):
        state = logic.seller.new_seller(5)
        state = logic.seller.upsert_entry(state, self.make_order())
        state = logic.seller.update_entry_status(
            state, "o1", OrderStatus.CANCELED, 2.0)
        assert state["revenue_cents"] == 0
        assert logic.seller.dashboard_amount(state) == 0

    def test_status_update_for_unknown_order_is_noop(self):
        state = logic.seller.new_seller(5)
        assert logic.seller.update_entry_status(
            state, "nope", OrderStatus.COMPLETED, 1.0) == state


class TestProduct:
    def test_new_product_active_versioned(self):
        product = logic.product.new_product(1, 2, "thing", "cat", 100)
        assert product["active"] and product["version"] == 1

    def test_price_update_bumps_version(self):
        product = logic.product.new_product(1, 2, "thing", "cat", 100)
        updated = logic.product.update_price(product, 250)
        assert updated["price_cents"] == 250
        assert updated["version"] == 2

    def test_negative_price_rejected(self):
        product = logic.product.new_product(1, 2, "thing", "cat", 100)
        with pytest.raises(ValueError):
            logic.product.update_price(product, -1)

    def test_delete_marks_inactive(self):
        product = logic.product.new_product(1, 2, "thing", "cat", 100)
        deleted = logic.product.delete(product)
        assert not deleted["active"]
        assert deleted["version"] == 2

    def test_operations_on_deleted_product_rejected(self):
        product = logic.product.delete(
            logic.product.new_product(1, 2, "thing", "cat", 100))
        with pytest.raises(ValueError):
            logic.product.update_price(product, 100)
        with pytest.raises(ValueError):
            logic.product.delete(product)


class TestIngestion:
    def test_register_is_idempotent_per_key(self):
        state = logic.ingestion.new_registry("ozon/3")
        state, first, created = logic.ingestion.register(state, "ozon/3/a")
        assert created and first == "xozon.3-00001"
        same, again, created = logic.ingestion.register(state, "ozon/3/a")
        assert same is state and again == first and not created
        state, second, _ = logic.ingestion.register(state, "ozon/3/b")
        assert second == "xozon.3-00002"
        assert state["entries"] == {"ozon/3/a": first, "ozon/3/b": second}

    def test_release_drops_the_registration_once(self):
        empty = logic.ingestion.new_registry("ozon/3")
        state, _, _ = logic.ingestion.register(empty, "ozon/3/a")
        released = logic.ingestion.release(state, "ozon/3/a")
        assert "ozon/3/a" not in released["entries"]
        assert "ozon/3/a" in state["entries"]
        assert logic.ingestion.release(released, "ozon/3/a") is released

    def test_rebind_points_the_key_at_the_retry_order(self):
        state, order_id, _ = logic.ingestion.register(
            logic.ingestion.new_registry("ozon/3"), "ozon/3/a")
        rebound = logic.ingestion.rebind(state, "ozon/3/a", "retry.r1")
        assert rebound["entries"]["ozon/3/a"] == "retry.r1"
        assert state["entries"]["ozon/3/a"] == order_id


def lifecycle_script(states):
    """One checkout-to-delivery pass over every growing collection;
    ``states`` maps service name -> state (plain dicts or views)."""
    cart = logic.cart.add_item(states["cart"], item(seller=7))
    cart = logic.cart.add_item(cart, item(seller=7))
    orders, order = logic.order.assemble(
        states["order"], "o9", [item(seller=7)], now=1.0)
    orders = logic.order.set_status(
        orders, "o9", OrderStatus.PAYMENT_PROCESSED, now=2.0)
    orders = logic.order.record_shipment(orders, "o9", 1, now=3.0)
    shipments, shipment = logic.shipment.create_shipment(
        states["shipment"], "o9", 1, order["items"], now=3.0)
    package_id = next(iter(shipment["packages"]))
    shipments, _ = logic.shipment.mark_delivered(
        shipments, "o9", package_id, now=4.0)
    orders, completed = logic.order.record_delivery(orders, "o9", now=4.0)
    assert completed
    seller = logic.seller.upsert_entry(
        states["seller"], {**order, "status": OrderStatus.IN_TRANSIT})
    seller = logic.seller.update_entry_status(
        seller, "o1", OrderStatus.COMPLETED, now=4.0)
    registry, _, _ = logic.ingestion.register(states["ingestion"], "k/1/b")
    registry = logic.ingestion.rebind(registry, "k/1/b", "o9")
    registry = logic.ingestion.release(registry, "k/1/a")
    return {"cart": cart, "order": orders, "shipment": shipments,
            "seller": seller, "ingestion": registry}


def copying_updaters(states):
    """Every other updater a stack calls, each applied to the seeded
    state itself: these return a new dict (``{**state, ...}``) rather
    than the view they were handed."""
    stock, product = states["stock"], states["product"]
    payment, customer = states["payment"], states["customer"]
    assert logic.stock.reserve(stock, 2)[1]
    logic.stock.confirm_reservation(stock, 1)
    logic.stock.cancel_reservation(stock, 1)
    logic.stock.restock(stock, 3)
    logic.stock.deactivate(stock, 2)
    logic.product.update_price(product, 1200)
    logic.product.delete(product)
    logic.payment.authorize(payment)
    logic.payment.refund(payment)
    logic.customer.record_payment(customer, 900, True)
    logic.customer.record_payment(customer, 900, False)
    logic.customer.record_delivery(customer)
    logic.customer.record_refund(customer, 900)
    logic.cart.seal_for_checkout(states["cart"])
    logic.order.set_status(states["order"], "o1",
                           OrderStatus.PAYMENT_FAILED, now=1.0)
    logic.seller.record_return(states["seller"], 500)


def seeded_states():
    """Every service with one earlier order (``o1``) already in state."""
    cart = logic.cart.add_item(logic.cart.new_cart(1), item())
    orders, order = logic.order.assemble(
        logic.order.new_customer_orders(1), "o1", [item(seller=7)], now=0.0)
    shipments, _ = logic.shipment.create_shipment(
        logic.shipment.new_shipments(), "o1", 1, order["items"], now=0.0)
    seller = logic.seller.upsert_entry(logic.seller.new_seller(7), order)
    registry, _, _ = logic.ingestion.register(
        logic.ingestion.new_registry("k/1"), "k/1/a")
    return {"cart": cart, "order": orders, "shipment": shipments,
            "seller": seller, "ingestion": registry,
            "stock": logic.stock.reserve(logic.stock.new_item(1, 7, 10),
                                         2)[0],
            "product": logic.product.new_product(1, 7, "p", "c", 1000),
            "payment": logic.payment.authorize(logic.payment.build_payment(
                "o1", 1, 2000, PaymentMethod.CREDIT_CARD, now=0.0)),
            "customer": logic.customer.new_customer(1)}


def test_updaters_agree_on_plain_state_and_on_views():
    """One updater serves all stacks: the transactional ones pass
    read-only proxies of frozen dicts, the others plain dicts, and no
    updater mutates either — every stack replaces its state with what
    the updater returns.  ``CowState`` views (``assoc_in`` updates them
    in place) still give the same results."""
    plain = seeded_states()
    frozen = copy.deepcopy(plain)
    expected = lifecycle_script(plain)
    copying_updaters(plain)
    assert plain == frozen, "an updater mutated its plain-dict input"
    proxies = {name: MappingProxyType(state)
               for name, state in plain.items()}
    copying_updaters(proxies)
    results = lifecycle_script(proxies)
    assert plain == frozen, "an update through a proxy reached its base"
    for name in expected:
        assert (json.dumps(results[name])
                == json.dumps(expected[name])), name
    views = {name: CowState(plain[name]) for name in expected}
    results = lifecycle_script(views)
    assert plain == frozen, "an update through a view reached its base"
    for name, view in views.items():
        assert results[name] is view, f"{name}: view not updated in place"
        # json.dumps without sort_keys: equal values in equal key order.
        assert (json.dumps(materialize(view))
                == json.dumps(expected[name])), name

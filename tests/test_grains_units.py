"""Focused unit tests on individual grain behaviours (eventual app,
plus the leaf writers of the transactional one)."""

from repro.actors import Cluster
from repro.apps import grains_eventual as grains
from repro.apps import grains_txn
from repro.config import AppConfig
from repro.marketplace.logic import customer as customer_logic
from repro.runtime import Environment
from repro.txn import LockMode, TransactionRunner


class FakeApp:
    """Just enough app context for grains under test."""

    def __init__(self, cluster):
        self.config = cluster.config
        self.cluster = cluster

    def shipment_partition(self, order_id):
        return "part-0"


def make_cluster(seed=1):
    env = Environment(seed=seed)
    cluster = Cluster(env, AppConfig(silos=1, cores_per_silo=2))
    cluster.app = FakeApp(cluster)
    return env, cluster


def call(env, ref, method, *args):
    promise = ref.call(method, *args)
    return env.run(until=promise)


def install(cluster, ref, data):
    grain = cluster.grain_instance(ref)
    grain.data = data
    return grain


class TestReplicaGrain:
    def test_last_writer_wins_under_reordered_updates(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ReplicaGrain, "1/1")
        install(cluster, ref, {"price_cents": 100, "version": 1,
                               "active": True})
        # Updates arrive out of order: v3 then v2.
        assert call(env, ref, "apply_update", 300, 3) is True
        assert call(env, ref, "apply_update", 200, 2) is False
        price = call(env, ref, "get_price")
        assert price["price_cents"] == 300
        assert price["version"] == 3

    def test_stale_delete_ignored(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ReplicaGrain, "1/1")
        install(cluster, ref, {"price_cents": 100, "version": 5,
                               "active": True})
        assert call(env, ref, "apply_delete", 3) is False
        assert call(env, ref, "get_price") is not None

    def test_delete_hides_price(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ReplicaGrain, "1/1")
        install(cluster, ref, {"price_cents": 100, "version": 1,
                               "active": True})
        assert call(env, ref, "apply_delete", 2) is True
        assert call(env, ref, "get_price") is None

    def test_update_on_unknown_product_bootstraps_replica(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ReplicaGrain, "9/9")
        assert call(env, ref, "apply_update", 700, 4) is True
        price = call(env, ref, "get_price")
        assert price == {"price_cents": 700, "version": 4,
                         "active": True}


class TestStockGrain:
    def setup_stock(self, qty=10):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.StockGrain, "1/1")
        install(cluster, ref, {"product_id": 1, "seller_id": 1,
                               "qty_available": qty, "qty_reserved": 0,
                               "version": 1, "active": True})
        return env, cluster, ref

    def test_reserve_up_to_capacity(self):
        env, cluster, ref = self.setup_stock(qty=5)
        assert call(env, ref, "reserve", 5) is True
        assert call(env, ref, "reserve", 1) is False

    def test_reserve_on_uninstalled_stock_fails(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.StockGrain, "9/9")
        assert call(env, ref, "reserve", 1) is False

    def test_confirm_and_cancel_roundtrip(self):
        env, cluster, ref = self.setup_stock(qty=10)
        call(env, ref, "reserve", 4)
        call(env, ref, "confirm", 2)
        call(env, ref, "cancel", 2)
        grain = cluster.grain_instance(ref)
        assert grain.data["qty_available"] == 8
        assert grain.data["qty_reserved"] == 0

    def test_deactivate_blocks_reservations(self):
        env, cluster, ref = self.setup_stock()
        assert call(env, ref, "deactivate", 2) is True
        assert call(env, ref, "reserve", 1) is False


class TestCartGrain:
    def test_add_item_reads_replica_price(self):
        env, cluster = make_cluster()
        replica = cluster.grain_ref(grains.ReplicaGrain, "1/1")
        install(cluster, replica, {"price_cents": 450, "version": 7,
                                   "active": True})
        cart = cluster.grain_ref(grains.CartGrain, "5")
        result = call(env, cart, "add_item", 1, 1, 2, 0)
        assert result == {"price_version": 7}
        grain = cluster.grain_instance(cart)
        assert grain.data["items"]["1/1"]["unit_price_cents"] == 450

    def test_add_unavailable_item_rejected(self):
        env, cluster = make_cluster()
        cart = cluster.grain_ref(grains.CartGrain, "5")
        result = call(env, cart, "add_item", 9, 9, 1, 0)
        assert result == {"status": "rejected", "reason": "unavailable"}

    def test_checkout_empty_cart_rejected_without_order_call(self):
        env, cluster = make_cluster()
        cart = cluster.grain_ref(grains.CartGrain, "5")
        result = call(env, cart, "checkout", "o1", "credit_card")
        assert result["status"] == "rejected"
        # No order grain was ever activated.
        order_key = ("OrderGrain", "5")
        assert all(order_key not in silo.activations
                   for silo in cluster.silos)


class TestPaymentGrain:
    def test_process_is_deterministic_per_order(self):
        env, cluster = make_cluster()
        order = {"order_id": "oX", "customer_id": 1,
                 "total_cents": 500}
        a = cluster.grain_ref(grains.PaymentGrain, "oX")
        first = call(env, a, "process", order, "credit_card", 0.5)
        second = call(env, a, "process", order, "credit_card", 0.5)
        assert first["status"] == second["status"]


class TestSellerGrain:
    def order(self, status="invoiced"):
        return {"order_id": "o1", "customer_id": 2, "status": status,
                "updated_at": 1.0,
                "items": [{"seller_id": 3, "product_id": 1,
                           "quantity": 2, "unit_price_cents": 100}]}

    def test_event_sequence_builds_and_retires_entry(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.SellerGrain, "3")
        call(env, ref, "apply_order_event",
             {"kind": "order_created", "order": self.order()})
        assert call(env, ref, "dashboard_amount") == 200
        call(env, ref, "apply_order_event",
             {"kind": "payment_confirmed", "order_id": "o1"})
        call(env, ref, "apply_order_event",
             {"kind": "shipment_notification", "order_id": "o1"})
        assert call(env, ref, "dashboard_amount") == 200
        call(env, ref, "apply_order_event",
             {"kind": "order_completed", "order_id": "o1"})
        assert call(env, ref, "dashboard_amount") == 0
        grain = cluster.grain_instance(ref)
        assert grain.data["revenue_cents"] == 200

    def test_payment_failed_retires_without_revenue(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.SellerGrain, "3")
        call(env, ref, "apply_order_event",
             {"kind": "order_created", "order": self.order()})
        call(env, ref, "apply_order_event",
             {"kind": "payment_failed", "order_id": "o1"})
        assert call(env, ref, "dashboard_amount") == 0
        grain = cluster.grain_instance(ref)
        assert grain.data["revenue_cents"] == 0

    def test_dashboard_entries_match_amount(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.SellerGrain, "3")
        call(env, ref, "apply_order_event",
             {"kind": "order_created", "order": self.order()})
        entries = call(env, ref, "dashboard_entries")
        amount = call(env, ref, "dashboard_amount")
        assert sum(entry["amount_cents"] for entry in entries) == amount


class TestShipmentGrain:
    def order(self):
        return {"order_id": "o1", "customer_id": 2,
                "total_cents": 300,
                "items": [{"seller_id": 1, "product_id": 1,
                           "quantity": 1, "unit_price_cents": 100},
                          {"seller_id": 2, "product_id": 9,
                           "quantity": 2, "unit_price_cents": 100}]}

    def test_create_once_and_idempotent(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ShipmentGrain, "part-0")
        assert call(env, ref, "create", self.order(), 0) is True
        assert call(env, ref, "create", self.order(), 0) is False
        grain = cluster.grain_instance(ref)
        assert len(grain.data["shipments"]["o1"]["packages"]) == 2

    def test_undelivered_tracking_and_delivery(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ShipmentGrain, "part-0")
        call(env, ref, "create", self.order(), 0)
        sellers = call(env, ref, "undelivered_seller_times")
        assert [seller for seller, _ in sellers] == [1, 2]
        package = call(env, ref, "oldest_package", 1)
        assert package is not None
        assert call(env, ref, "mark_delivered", "o1",
                    package["package_id"]) is True
        assert [seller for seller, _ in call(
            env, ref, "undelivered_seller_times")] == [2]

    def test_mark_delivered_unknown_order(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.ShipmentGrain, "part-0")
        assert call(env, ref, "mark_delivered", "nope", "pkg-1") is False


class TestWritersOnAGrainWithNoRecord:
    """A leaf writer on a grain with no record starts from the grain's
    fresh state when the grain has one; otherwise it answers False and
    writes nothing."""

    def test_eventual_stock_writers_answer_false(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.StockGrain, "9/9")
        assert call(env, ref, "restock", 2) is False
        assert call(env, ref, "deactivate", 2) is False
        assert cluster.grain_instance(ref).data is None

    def test_eventual_customer_writer_creates_the_record(self):
        env, cluster = make_cluster()
        ref = cluster.grain_ref(grains.CustomerGrain, "7")
        assert call(env, ref, "record_payment", 500, True) is True
        assert cluster.grain_instance(ref).data == (
            customer_logic.record_payment(
                customer_logic.new_customer(7), 500, True))

    @staticmethod
    def in_transaction(grain_type, key, method, *args):
        """Run ``method`` in a transaction of its own: its reply, and
        what the grain's participant had staged and locked for the
        transaction once the call returned, before the commit."""
        env, cluster = make_cluster()
        runner = TransactionRunner(cluster)
        ref = cluster.grain_ref(grain_type, key)
        seen = {}

        def body(ctx):
            def steps():
                seen["reply"] = yield ref.call(method, *args, txn=ctx)
                participant = cluster.grain_instance(ref).participant
                seen["staged"] = participant._staged.get(ctx.txid)
                seen["lock"] = participant.lock.held_by(ctx)
            return env.process(steps())

        env.run(until=runner.run(body))
        return seen

    def test_txn_stock_release_answers_false_and_stages_nothing(self):
        seen = self.in_transaction(grains_txn.TxnStockGrain, "9/9",
                                   "release", 2)
        assert seen["reply"] is False
        assert seen["staged"] is None
        assert seen["lock"] is not LockMode.EXCLUSIVE

    def test_txn_customer_writer_stages_a_fresh_customer(self):
        seen = self.in_transaction(grains_txn.TxnCustomerGrain, "7",
                                   "record_payment", 500, False)
        assert seen["reply"] is True
        assert seen["staged"] == customer_logic.record_payment(
            customer_logic.new_customer(7), 500, False)
        assert seen["lock"] is LockMode.EXCLUSIVE

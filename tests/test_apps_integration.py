"""Integration tests: each implementation driven through real scenarios."""

import pytest

from repro.apps import ALL_APPS, AppConfig
from repro.core import (
    BenchmarkDriver,
    Dataset,
    DriverConfig,
    WorkloadConfig,
    audit_app,
)
from repro.core.workload.config import INITIAL_STOCK, TransactionMix
from repro.marketplace.constants import PaymentMethod
from repro.runtime import Environment

APP_NAMES = list(ALL_APPS)

SMALL = WorkloadConfig(sellers=3, customers=12, products_per_seller=4)


def make_app(name, seed=11, **config):
    env = Environment(seed=seed)
    config.setdefault("silos", 2)
    config.setdefault("cores_per_silo", 2)
    app = ALL_APPS[name](env, AppConfig(**config))
    app.ingest(Dataset(SMALL, seed=seed))
    return env, app


def run_op(env, generator):
    process = env.process(generator)
    result = env.run(until=process)
    return result


def rejection(result):
    """A result's ``(status, reason)``: the same pair on every stack."""
    return result.status, result.payload.get("reason")


@pytest.mark.parametrize("name", APP_NAMES)
class TestSingleOperations:
    def test_add_item_ok(self, name):
        env, app = make_app(name)
        result = run_op(env, app.add_item(1, 1, 1, 2))
        assert result.ok
        assert result.payload["price_version"] == 1

    def test_add_unknown_product_rejected(self, name):
        env, app = make_app(name)
        result = run_op(env, app.add_item(1, 9, 999, 1))
        assert rejection(result) == ("rejected", "unavailable")

    def test_checkout_happy_path(self, name):
        env, app = make_app(name)
        assert run_op(env, app.add_item(1, 1, 1, 2)).ok
        result = run_op(env, app.checkout(1, "order-1",
                                          PaymentMethod.CREDIT_CARD))
        assert result.ok, result
        assert result.payload["total_cents"] > 0

    def test_checkout_empty_cart_rejected(self, name):
        env, app = make_app(name)
        result = run_op(env, app.checkout(1, "order-x",
                                          PaymentMethod.CREDIT_CARD))
        assert rejection(result) == ("rejected", "empty_cart")

    def test_checkout_decrements_stock(self, name):
        env, app = make_app(name)
        run_op(env, app.add_item(1, 1, 1, 5))
        result = run_op(env, app.checkout(1, "order-1",
                                          PaymentMethod.DEBIT_CARD))
        assert result.ok
        env.run(until=env.now + 1.0)  # let async effects quiesce
        stock = app.audit_views()["stock"]["1/1"]
        assert stock["qty_available"] == INITIAL_STOCK - 5
        assert stock["qty_reserved"] == 0

    def test_checkout_creates_shipment_packages(self, name):
        env, app = make_app(name)
        run_op(env, app.add_item(1, 1, 1, 1))
        # Product ids are global: seller 2's catalogue starts after
        # seller 1's products plus its reserve product.
        second = run_op(env, app.add_item(1, 2, 6, 1))
        assert second.ok, second
        result = run_op(env, app.checkout(1, "order-1",
                                          PaymentMethod.BOLETO))
        assert result.ok
        env.run(until=env.now + 1.0)
        shipments = {}
        for partition in app.audit_views()["shipments"].values():
            shipments.update(partition.get("shipments", {}))
        assert "order-1" in shipments
        assert len(shipments["order-1"]["packages"]) == 2

    def test_declined_payment_releases_stock(self, name):
        env, app = make_app(name, approval_rate=0.0)
        run_op(env, app.add_item(1, 1, 1, 3))
        result = run_op(env, app.checkout(1, "order-1",
                                          PaymentMethod.CREDIT_CARD))
        assert result.status == "failed"
        env.run(until=env.now + 1.0)
        stock = app.audit_views()["stock"]["1/1"]
        assert stock["qty_available"] == INITIAL_STOCK
        assert stock["qty_reserved"] == 0

    def test_price_update_visible_to_later_adds(self, name):
        env, app = make_app(name)
        result = run_op(env, app.update_price(1, 1, 123_45))
        assert result.ok
        assert result.payload["version"] == 2
        env.run(until=env.now + 1.0)  # replication quiesce
        add = run_op(env, app.add_item(1, 1, 1, 1))
        assert add.ok
        assert add.payload["price_version"] == 2

    def test_delete_product_blocks_later_adds(self, name):
        env, app = make_app(name)
        result = run_op(env, app.delete_product(1, 1))
        assert result.ok
        env.run(until=env.now + 1.0)
        add = run_op(env, app.add_item(1, 1, 1, 1))
        assert rejection(add) == ("rejected", "unavailable")

    def test_double_delete_rejected(self, name):
        env, app = make_app(name)
        assert run_op(env, app.delete_product(1, 1)).ok
        env.run(until=env.now + 1.0)
        second = run_op(env, app.delete_product(1, 1))
        assert rejection(second) == ("rejected", "inactive")

    def test_price_update_of_deleted_product_rejected(self, name):
        env, app = make_app(name)
        assert run_op(env, app.delete_product(1, 1)).ok
        env.run(until=env.now + 1.0)
        result = run_op(env, app.update_price(1, 1, 123_45))
        assert rejection(result) == ("rejected", "inactive")

    def test_return_of_unknown_order_rejected(self, name):
        env, app = make_app(name)
        result = run_op(env, app.request_return(1, "order-x"))
        assert rejection(result) == ("rejected", "unknown_order")

    def test_update_delivery_progresses_orders(self, name):
        env, app = make_app(name)
        run_op(env, app.add_item(1, 1, 1, 1))
        assert run_op(env, app.checkout(1, "order-1",
                                        PaymentMethod.CREDIT_CARD)).ok
        env.run(until=env.now + 1.0)
        result = run_op(env, app.update_delivery())
        assert result.ok
        assert result.payload["packages_delivered"] == 1
        env.run(until=env.now + 1.0)
        orders = app.audit_views()["orders"]["1"]["orders"]
        assert orders["order-1"]["status"] == "completed"

    def test_update_delivery_without_shipments_is_noop(self, name):
        env, app = make_app(name)
        result = run_op(env, app.update_delivery())
        assert result.ok
        assert result.payload["packages_delivered"] == 0

    def test_dashboard_reflects_in_progress_order(self, name):
        env, app = make_app(name)
        run_op(env, app.add_item(1, 1, 1, 2))
        checkout = run_op(env, app.checkout(1, "order-1",
                                            PaymentMethod.CREDIT_CARD))
        assert checkout.ok
        env.run(until=env.now + 1.0)
        result = run_op(env, app.dashboard(1))
        assert result.ok
        assert result.payload["amount_cents"] == \
            checkout.payload["total_cents"]
        assert result.payload["entries_total_cents"] == \
            result.payload["amount_cents"]

    def test_dashboard_empties_after_completion(self, name):
        env, app = make_app(name)
        run_op(env, app.add_item(1, 1, 1, 2))
        assert run_op(env, app.checkout(1, "order-1",
                                        PaymentMethod.CREDIT_CARD)).ok
        env.run(until=env.now + 1.0)
        run_op(env, app.update_delivery())
        env.run(until=env.now + 1.0)
        result = run_op(env, app.dashboard(1))
        assert result.ok
        assert result.payload["amount_cents"] == 0

    def test_customer_stats_recorded(self, name):
        env, app = make_app(name)
        run_op(env, app.add_item(1, 1, 1, 1))
        checkout = run_op(env, app.checkout(1, "order-1",
                                            PaymentMethod.CREDIT_CARD))
        assert checkout.ok
        env.run(until=env.now + 1.0)
        customer = app.audit_views()["customers"]["1"]
        assert customer["payments_succeeded"] == 1
        assert customer["spent_cents"] == checkout.payload["total_cents"]

    def test_external_order_has_a_checkouts_downstream_effects(self, name):
        """An external order is a prepaid checkout: placing one item
        either way decrements the same stock, adds the same seller
        dashboard amount and counts the same customer payment."""

        def via_checkout(env, app, price_cents):
            assert run_op(env, app.add_item(1, 1, 1, 3)).ok
            return app.checkout(1, "order-1", PaymentMethod.CREDIT_CARD)

        def via_external(env, app, price_cents):
            return app.submit_external("p1", 2, "E1", 1, [
                {"seller_id": 1, "product_id": 1, "quantity": 3,
                 "unit_price_cents": price_cents}])

        def effects(place):
            env, app = make_app(name)
            views = app.audit_views()
            stock = views["stock"]["1/1"]["qty_available"]
            price_cents = views["products"]["1/1"]["price_cents"]
            assert run_op(env, place(env, app, price_cents)).ok
            env.run(until=env.now + 1.0)  # let async effects quiesce
            views = app.audit_views()
            dashboard = run_op(env, app.dashboard(1))
            assert dashboard.ok
            return (stock - views["stock"]["1/1"]["qty_available"],
                    dashboard.payload["amount_cents"],
                    views["customers"]["1"]["payments_succeeded"])

        checkout = effects(via_checkout)
        assert checkout[0] == 3 and checkout[1] > 0 and checkout[2] == 1
        assert effects(via_external) == checkout


#: The record kinds ingestion installs, by audit view.
INSTALLED_VIEWS = ("products", "replicas", "stock", "sellers", "customers")


@pytest.mark.parametrize("name", APP_NAMES)
class TestIngestionModes:
    """A small world is preloaded, a large one installed on first
    touch; either way a touched record is the same state."""

    def make_on_touch_app(self, name, monkeypatch):
        monkeypatch.setattr("repro.apps.base.PRELOAD_MAX_RECORDS", 0)
        return make_app(name)[1]

    def test_preloaded_and_on_touch_install_identical_state(
            self, name, monkeypatch):
        preloaded = make_app(name)[1].audit_views()
        for view in INSTALLED_VIEWS:
            assert len(preloaded[view]) > 0
        app = self.make_on_touch_app(name, monkeypatch)
        views = app.audit_views()
        assert not any(views[view] for view in INSTALLED_VIEWS)
        app.touch_customer(3)
        app.touch_product(2, 7)
        app.touch_product(2, 7)  # idempotent
        app.touch_seller(3)
        views = app.audit_views()
        assert set(views["products"]) == {"2/7"}
        assert set(views["replicas"]) == {"2/7"}
        assert set(views["stock"]) == {"2/7"}
        assert set(views["sellers"]) == {"2", "3"}
        assert set(views["customers"]) == {"3"}
        for view in INSTALLED_VIEWS:
            for key, state in views[view].items():
                assert state == preloaded[view][key], (view, key)

    def test_touching_a_preloaded_record_changes_nothing(self, name):
        env, app = make_app(name)
        assert run_op(env, app.update_price(1, 1, 4321)).ok
        before = app.audit_views()["products"]["1/1"]
        app.touch_product(1, 1)
        app.touch_customer(1)
        assert app.audit_views()["products"]["1/1"] == before
        assert before["price_cents"] == 4321

    def test_out_of_range_touch_raises_every_time(self, name, monkeypatch):
        app = self.make_on_touch_app(name, monkeypatch)
        for _ in range(2):
            with pytest.raises(KeyError):
                app.touch_product(1, 10**9)
            with pytest.raises(KeyError):
                app.touch_seller(0)
            with pytest.raises(KeyError):
                app.touch_customer(0)
        # ... and a failed touch leaves nothing half-installed behind.
        app.touch_product(1, 1)
        app.touch_customer(1)
        views = app.audit_views()
        assert set(views["products"]) == {"1/1"}
        assert set(views["sellers"]) == {"1"}
        assert set(views["customers"]) == {"1"}


@pytest.mark.parametrize("name", APP_NAMES)
class TestDriverRuns:
    def run_driver(self, name, seed=13, mix=None, **app_config):
        env = Environment(seed=seed)
        app = ALL_APPS[name](env, AppConfig(silos=2, cores_per_silo=2,
                                            **app_config))
        workload = WorkloadConfig(
            sellers=3, customers=16, products_per_seller=4,
            mix=mix or TransactionMix())
        driver = BenchmarkDriver(
            env, app, workload,
            DriverConfig(workers=6, warmup=0.25, duration=1.0, drain=1.0))
        metrics = driver.run()
        return app, driver, metrics

    def test_driver_produces_committed_checkouts(self, name):
        app, driver, metrics = self.run_driver(name)
        assert metrics.ops["checkout"].ok > 0
        assert metrics.total_throughput > 0

    def test_latency_percentiles_are_ordered(self, name):
        app, driver, metrics = self.run_driver(name)
        latency = metrics.ops["checkout"].latency
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["min"] <= latency["p50"] <= latency["max"]

    def test_clean_run_passes_atomicity_and_integrity(self, name):
        app, driver, metrics = self.run_driver(name)
        report = audit_app(app, driver)
        assert report.results["C1-atomicity"].passed, \
            report.results["C1-atomicity"].details
        assert report.results["C3-integrity"].passed, \
            report.results["C3-integrity"].details

    def test_deterministic_given_seed(self, name):
        _, _, first = self.run_driver(name, seed=21)
        _, _, second = self.run_driver(name, seed=21)
        assert first.total_throughput == second.total_throughput
        assert first.ops["checkout"].ok == second.ops["checkout"].ok

    def test_different_seeds_differ(self, name):
        _, _, first = self.run_driver(name, seed=21)
        _, _, second = self.run_driver(name, seed=22)
        # Not a strict requirement op-by-op, but the runs must not be
        # byte-identical in aggregate.
        assert (first.ops["checkout"].ok != second.ops["checkout"].ok
                or first.total_throughput != second.total_throughput)


class TestCrossAppSemantics:
    """The paper's qualitative claims, checked under one nasty workload."""

    def run_all(self, drop=0.0, seed=29):
        results = {}
        mix = TransactionMix(checkout=60, price_update=18,
                             product_delete=4, update_delivery=6,
                             dashboard=12)
        for name in APP_NAMES:
            env = Environment(seed=seed)
            app = ALL_APPS[name](env, AppConfig(
                silos=2, cores_per_silo=2, drop_probability=drop))
            driver = BenchmarkDriver(
                env, app,
                WorkloadConfig(sellers=3, customers=16,
                               products_per_seller=4, mix=mix),
                DriverConfig(workers=8, warmup=0.25, duration=1.5,
                             drain=1.5))
            metrics = driver.run()
            results[name] = (metrics, audit_app(app, driver))
        return results

    def test_throughput_ranking_matches_paper(self):
        results = self.run_all()
        tput = {name: metrics.total_throughput
                for name, (metrics, _) in results.items()}
        assert tput["orleans-eventual"] > tput["statefun"]
        assert tput["statefun"] > tput["orleans-transactions"]
        # Statefun ~2x Orleans Transactions (allow a generous band).
        ratio = tput["statefun"] / tput["orleans-transactions"]
        assert 1.3 <= ratio <= 3.5, ratio
        # Customized is comparable to Orleans Transactions.
        ratio = (tput["customized-orleans"]
                 / tput["orleans-transactions"])
        assert 0.6 <= ratio <= 1.2, ratio

    def test_only_customized_meets_all_criteria(self):
        results = self.run_all()
        reports = {name: report for name, (_, report) in results.items()}
        assert reports["customized-orleans"].all_pass
        assert not reports["orleans-eventual"].all_pass
        assert not reports["orleans-transactions"].all_pass
        assert not reports["statefun"].all_pass

    def test_transactional_apps_keep_atomicity_under_message_loss(self):
        results = self.run_all(drop=0.02)
        for name in ("orleans-transactions", "customized-orleans"):
            report = results[name][1]
            assert report.results["C1-atomicity"].passed, (
                name, report.results["C1-atomicity"].details)

    def test_eventual_app_violates_atomicity_under_message_loss(self):
        results = self.run_all(drop=0.02)
        report = results["orleans-eventual"][1]
        assert not report.results["C1-atomicity"].passed

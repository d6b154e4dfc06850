"""Unit tests for the benchmark driver lifecycle."""

import pytest

from _stub_app import StubApp
from repro.apps.base import ok
from repro.core import BenchmarkDriver, DriverConfig, WorkloadConfig
from repro.core.workload.config import TransactionMix
from repro.runtime import Environment


def make_driver(seed=1, mix=None, **driver_kwargs):
    env = Environment(seed=seed)
    app = StubApp(env)
    workload = WorkloadConfig(sellers=2, customers=10,
                              products_per_seller=4,
                              mix=mix or TransactionMix())
    driver_kwargs.setdefault("workers", 4)
    driver_kwargs.setdefault("warmup", 0.2)
    driver_kwargs.setdefault("duration", 1.0)
    driver_kwargs.setdefault("drain", 0.2)
    driver = BenchmarkDriver(env, app, workload,
                             DriverConfig(**driver_kwargs))
    return env, app, driver


class TestDriverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(workers=0),
        dict(warmup=-1.0),
        dict(duration=0.0),
        dict(drain=-0.1),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriverConfig(**kwargs)


class TestLifecycle:
    def test_run_ingests_exactly_once(self):
        env, app, driver = make_driver()
        driver.run()
        assert app.dataset is driver.dataset

    def test_warmup_samples_not_recorded(self):
        env, app, driver = make_driver()
        metrics = driver.run()
        # Total ops executed > ops recorded (warm-up discarded).
        executed = sum(app.calls.values())
        recorded = sum(op.count for op in metrics.ops.values())
        assert executed > recorded > 0

    def test_all_operation_types_submitted(self):
        # The ingestion/return operations default to weight 0, so give
        # every operation a slice to prove all seven dispatch paths.
        mix = TransactionMix(checkout=50, price_update=12,
                             product_delete=2, update_delivery=10,
                             dashboard=10, submit_external=10,
                             request_return=6)
        env, app, driver = make_driver(duration=2.0, mix=mix)
        driver.run()
        for name, count in app.calls.items():
            assert count > 0, name

    def test_mix_weights_respected(self):
        mix = TransactionMix(checkout=100, price_update=0,
                             product_delete=0, update_delivery=0,
                             dashboard=0)
        env, app, driver = make_driver(mix=mix)
        driver.run()
        assert app.calls["checkout"] > 0
        assert app.calls["update_price"] == 0
        assert app.calls["dashboard"] == 0

    def test_simulation_stops_after_drain(self):
        env, app, driver = make_driver(warmup=0.2, duration=1.0,
                                       drain=0.5)
        driver.run()
        assert env.now == pytest.approx(1.7)

    def test_metrics_reflect_recorder(self):
        env, app, driver = make_driver()
        metrics = driver.run()
        assert metrics.app == "stub"
        assert metrics.workers == 4
        checkout = metrics.ops["checkout"]
        assert checkout.ok == checkout.count
        assert checkout.latency["p50"] >= driver.app.op_latency


class TestInputSafety:
    def test_customers_never_shared_between_workers(self):
        """With more workers than customers, leases must prevent any
        concurrent checkout on the same cart."""
        env = Environment(seed=9)
        active = set()
        overlaps = []

        class Guard(StubApp):
            def checkout(self, customer_id, order_id, payment_method):
                if customer_id in active:
                    overlaps.append(customer_id)
                active.add(customer_id)
                result = yield from super().checkout(
                    customer_id, order_id, payment_method)
                active.discard(customer_id)
                return result

        app = Guard(env, op_latency=0.01)
        workload = WorkloadConfig(sellers=2, customers=3,
                                  products_per_seller=4)
        driver = BenchmarkDriver(env, app, workload,
                                 DriverConfig(workers=8, warmup=0.1,
                                              duration=1.0, drain=0.2))
        driver.run()
        assert overlaps == []

    def test_order_ids_unique(self):
        env = Environment(seed=9)
        seen = set()

        class Guard(StubApp):
            def checkout(self, customer_id, order_id, payment_method):
                assert order_id not in seen
                seen.add(order_id)
                result = yield from super().checkout(
                    customer_id, order_id, payment_method)
                return result

        app = Guard(env)
        workload = WorkloadConfig(sellers=2, customers=10,
                                  products_per_seller=4)
        BenchmarkDriver(env, app, workload,
                        DriverConfig(workers=4, warmup=0.1,
                                     duration=1.0, drain=0.2)).run()
        assert len(seen) > 10

    def test_deleted_products_leave_sampling_population(self):
        mix = TransactionMix(checkout=50, price_update=0,
                             product_delete=50, update_delivery=0,
                             dashboard=0)
        env, app, driver = make_driver(seed=11, mix=mix, duration=2.0)
        driver.run()
        # After the reserve pool is exhausted deletes are refused...
        assert driver.issuer.skipped["no_reserve"] > 0
        # ...and the sampling population never contains a deleted key.
        for seller_id, product_id in driver.issuer.registry.live_products():
            assert f"{seller_id}/{product_id}" not in app.deleted

    def test_observations_catch_injected_staleness(self):
        """If the app serves versions older than acknowledged ones, the
        driver must notice (this validates the C2 instrumentation)."""

        class StaleApp(StubApp):
            def add_item(self, customer_id, seller_id, product_id,
                         quantity, voucher_cents=0):
                yield from self._op("add_item")
                return ok("add_item", price_version=1)  # always stale

        env = Environment(seed=13)
        app = StaleApp(env)
        mix = TransactionMix(checkout=70, price_update=30,
                             product_delete=0, update_delivery=0,
                             dashboard=0)
        workload = WorkloadConfig(sellers=2, customers=10,
                                  products_per_seller=4, mix=mix)
        driver = BenchmarkDriver(env, app, workload,
                                 DriverConfig(workers=4, warmup=0.1,
                                              duration=2.0, drain=0.2))
        driver.run()
        assert driver.observations["stale_adds"] > 0

    def test_dashboard_mismatch_detected(self):
        class SkewApp(StubApp):
            def dashboard(self, seller_id):
                yield from self._op("dashboard")
                return ok("dashboard", amount_cents=100, entries=[],
                          entries_total_cents=0)

        env = Environment(seed=13)
        app = SkewApp(env)
        mix = TransactionMix(checkout=0, price_update=0,
                             product_delete=0, update_delivery=0,
                             dashboard=100)
        workload = WorkloadConfig(sellers=2, customers=10,
                                  products_per_seller=4, mix=mix)
        driver = BenchmarkDriver(env, app, workload,
                                 DriverConfig(workers=2, warmup=0.1,
                                              duration=0.5, drain=0.1))
        driver.run()
        assert driver.observations["dashboard_mismatches"] > 0
        assert driver.observations["dashboard_mismatches"] == \
            driver.observations["dashboards_checked"]

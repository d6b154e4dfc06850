"""Unit tests for the open-loop driver: arrivals, dispatch, queueing."""

import pytest

from _stub_app import StubApp
from repro.apps.base import rejected
from repro.core import WorkloadConfig
from repro.core.driver.arrivals import ConstantRate, PoissonArrivals
from repro.core.driver.open_loop import (
    HOTSPOT_RANKS,
    HotspotSpec,
    OpenLoopConfig,
    OpenLoopDriver,
)
from repro.core.workload.config import TransactionMix
from repro.runtime import Environment

CHECKOUT_ONLY = TransactionMix(checkout=100, price_update=0,
                               product_delete=0, update_delivery=0,
                               dashboard=0)


def make_driver(seed=1, rate=50.0, mix=None, op_latency=0.001,
                **config_kwargs):
    env = Environment(seed=seed)
    app = StubApp(env, op_latency=op_latency)
    workload = WorkloadConfig(sellers=2, customers=30,
                              products_per_seller=5,
                              mix=mix or TransactionMix())
    config_kwargs.setdefault("arrivals", PoissonArrivals(rate))
    config_kwargs.setdefault("warmup", 0.2)
    config_kwargs.setdefault("duration", 2.0)
    config_kwargs.setdefault("drain", 1.0)
    config_kwargs.setdefault("max_in_flight", 16)
    driver = OpenLoopDriver(env, app, workload,
                            OpenLoopConfig(**config_kwargs))
    return env, app, driver


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(warmup=-1.0),
        dict(duration=0.0),
        dict(drain=-0.1),
        dict(max_in_flight=0),
        dict(queue_capacity=0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(arrivals=ConstantRate(10.0))
        with pytest.raises(ValueError):
            OpenLoopConfig(**{**base, **kwargs})

    def test_driver_requires_config(self):
        env = Environment(seed=1)
        with pytest.raises(TypeError, match="config"):
            OpenLoopDriver(env, StubApp(env), WorkloadConfig())

    @pytest.mark.parametrize("kwargs", [
        dict(start=-1.0, end=1.0),
        dict(start=2.0, end=1.0),
        dict(start=float("nan"), end=1.0),
        dict(start=0.0, end=float("inf")),
    ])
    def test_invalid_hotspots_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HotspotSpec(**kwargs)


class TestOpenLoopLifecycle:
    def test_arrival_conservation(self):
        env, app, driver = make_driver()
        metrics = driver.run()
        stats = metrics.open_loop
        assert stats["arrivals"] > 0
        assert stats["dispatched"] + stats["shed"] == stats["arrivals"]
        assert stats["shed"] == 0
        assert stats["completed"] == stats["dispatched"]
        assert driver.in_flight == 0
        assert driver.queue_length == 0

    def test_offered_rate_reached(self):
        # 50/s over warmup+duration=2.2s => ~110 arrivals.
        env, app, driver = make_driver(seed=5)
        metrics = driver.run()
        assert metrics.open_loop["arrivals"] == pytest.approx(110,
                                                              rel=0.35)

    def test_deterministic_for_seed(self):
        a = make_driver(seed=9)[2].run()
        b = make_driver(seed=9)[2].run()
        assert a.open_loop == b.open_loop
        assert a.total_throughput == b.total_throughput

    def test_warmup_arrivals_not_recorded(self):
        env, app, driver = make_driver()
        metrics = driver.run()
        executed = sum(app.calls.values())
        recorded = sum(op.count for op in metrics.ops.values())
        assert executed > recorded > 0

    def test_queueing_delay_negligible_under_capacity(self):
        env, app, driver = make_driver(rate=20.0, max_in_flight=32)
        metrics = driver.run()
        assert metrics.queue_delay_of("checkout", "p99") < 0.001

    def test_queueing_delay_grows_when_pool_saturated(self):
        # One dispatcher serves a ~4ms checkout transaction (~250/s);
        # 600/s offered is heavy overload, so queue wait must come to
        # dominate service time.
        env, app, driver = make_driver(
            mix=CHECKOUT_ONLY, max_in_flight=1, rate=600.0)
        metrics = driver.run()
        checkout = metrics.ops["checkout"]
        assert checkout.queue_delay is not None
        assert checkout.queue_delay["p50"] > 10 * checkout.latency["p50"]
        assert metrics.open_loop["max_queue"] > 10

    def test_queue_capacity_sheds_excess(self):
        env, app, driver = make_driver(
            mix=CHECKOUT_ONLY, max_in_flight=1, rate=600.0,
            queue_capacity=5)
        metrics = driver.run()
        stats = metrics.open_loop
        assert stats["shed"] > 0
        assert stats["max_queue"] <= 5
        assert stats["dispatched"] + stats["shed"] == stats["arrivals"]

    def test_in_flight_bounded_by_pool(self):
        env, app, driver = make_driver(rate=500.0, max_in_flight=4)
        metrics = driver.run()
        assert metrics.open_loop["max_in_flight"] <= 4

    def test_queue_stats_land_on_app_operation_names(self):
        # Mix names (price_update) differ from the operation names the
        # app reports (update_price); queueing stats must land on the
        # app-facing rows so queue wait and service latency align.
        mix = TransactionMix(checkout=0, price_update=100,
                             product_delete=0, update_delivery=0,
                             dashboard=0)
        env, app, driver = make_driver(mix=mix)
        metrics = driver.run()
        assert metrics.ops["update_price"].queue_delay is not None
        assert "price_update" not in metrics.ops

    def test_skipped_transactions_record_no_response(self):
        # 2 customers, checkout-only, deep pool: lease misses are
        # frequent; they must not inject phantom queue-delay samples.
        env = Environment(seed=21)
        app = StubApp(env, op_latency=0.01)
        workload = WorkloadConfig(sellers=2, customers=2,
                                  products_per_seller=5,
                                  mix=CHECKOUT_ONLY)
        driver = OpenLoopDriver(env, app, workload, OpenLoopConfig(
            arrivals=PoissonArrivals(300.0), warmup=0.2, duration=2.0,
            drain=5.0, max_in_flight=16))
        metrics = driver.run()
        assert driver.issuer.skipped["no_lease"] > 0
        queue = metrics.ops["checkout"].queue_delay
        # Queue-delay samples can't outnumber recorded checkout calls.
        assert queue["count"] <= metrics.ops["checkout"].count

    def test_empty_cart_checkouts_record_no_queue_samples(self):
        # When every add_item is rejected no checkout call happens;
        # the checkout row must get no queue samples (they
        # would disagree with its outcome counts — or be silently
        # dropped when no checkout outcome exists at all).
        class RejectingApp(StubApp):
            def add_item(self, customer_id, seller_id, product_id,
                         quantity, voucher_cents=0):
                yield from self._op("add_item")
                return rejected("add_item", reason="unavailable")

        env = Environment(seed=17)
        app = RejectingApp(env)
        workload = WorkloadConfig(sellers=2, customers=30,
                                  products_per_seller=5,
                                  mix=CHECKOUT_ONLY)
        driver = OpenLoopDriver(env, app, workload, OpenLoopConfig(
            arrivals=PoissonArrivals(50.0), warmup=0.2, duration=2.0,
            drain=1.0, max_in_flight=16))
        metrics = driver.run()
        assert driver.issuer.skipped["empty_cart"] > 0
        assert "checkout" not in metrics.ops
        assert "checkout" not in driver.recorder.queue_delays

    def test_timeline_accounts_for_all_ok(self):
        env, app, driver = make_driver()
        metrics = driver.run()
        assert sum(count for _, count in metrics.timeline) == \
            sum(op.ok for op in metrics.ops.values())

    def test_drain_completes_backlog(self):
        env, app, driver = make_driver(
            mix=CHECKOUT_ONLY, max_in_flight=2, rate=600.0, drain=60.0)
        metrics = driver.run()
        stats = metrics.open_loop
        assert stats["completed"] == stats["dispatched"]
        assert stats["final_queue"] == 0


class TestHotspot:
    def test_hotspot_concentrates_sampling(self):
        hotspot = HotspotSpec(start=0.0, end=10.0)
        env, app, driver = make_driver(mix=CHECKOUT_ONLY,
                                       hotspot=hotspot)
        driver.run()
        assert driver.sampler.hot_draws > 0
        hot_keys = {driver.issuer.registry.product_at(rank)
                    for rank in range(HOTSPOT_RANKS)}
        hot = sum(count for key, count in app.product_adds.items()
                  if tuple(map(int, key.split("/"))) in hot_keys)
        # The top three of ten ranks draw ~0.56 of adds unskewed and
        # 0.7 + 0.3 * 0.56 ~ 0.87 under the hotspot.
        assert hot > 0.75 * sum(app.product_adds.values())

    def test_hotspot_window_clears(self):
        hotspot = HotspotSpec(start=0.0, end=0.5)
        env, app, driver = make_driver(hotspot=hotspot)
        driver.run()
        assert not driver.sampler.active

"""Entity converters and kernel edge cases not covered elsewhere."""

import pytest

from repro.marketplace import (
    Product,
    StockItem,
    product_key,
)
from repro.runtime import Environment


class TestEntities:
    def test_product_key_format(self):
        assert product_key(3, 17) == "3/17"

    def test_product_entity_roundtrip(self):
        product = Product(product_id=1, seller_id=2, name="n",
                          category="c", price_cents=100)
        data = product.as_dict()
        assert data["price_cents"] == 100
        assert product.key == "2/1"
        assert Product(**data).as_dict() == data

    def test_stock_item_key(self):
        item = StockItem(product_id=5, seller_id=9, qty_available=10)
        assert item.key == "9/5"
        assert item.as_dict()["qty_reserved"] == 0


class TestKernelEdges:
    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.schedule(env.event().succeed())
        env.run()
        with pytest.raises(ValueError):
            env.run(until=env.now - 1.0)

    def test_run_until_future_time_with_empty_queue_advances_clock(self):
        env = Environment()
        env.run(until=5.0)
        assert env.now == 5.0

    def test_timeout_carries_value(self):
        env = Environment()

        def proc(env):
            value = yield env.timeout(1.0, value="payload")
            return value

        process = env.process(proc(env))
        env.run()
        assert process.value == "payload"

    def test_event_value_unavailable_before_trigger(self):
        env = Environment()
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_process_waiting_on_already_processed_event(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        env.run()

        def late_waiter(env):
            value = yield done
            return value

        process = env.process(late_waiter(env))
        env.run()
        assert process.value == "early"

    def test_active_process_visible_during_execution(self):
        env = Environment()
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(0.1)

        process = env.process(proc(env))
        env.run()
        assert seen == [process]
        assert env.active_process is None

    def test_environment_seed_recorded(self):
        assert Environment(seed=123).seed == 123

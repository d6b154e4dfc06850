"""Integration tests: exactly-once recovery of the Statefun app."""

import dataclasses

import pytest

from repro.apps import AppConfig, StatefunApp
from repro.control import run_scenario
from repro.core import Dataset, WorkloadConfig
from repro.costs import CostModel
from repro.dataflow import StatefulFunction, StatefunRuntime
from repro.marketplace.constants import PaymentMethod
from repro.runtime import Environment


#: Too many records to preload: installed on first touch instead.
LARGE = WorkloadConfig(sellers=50, customers=24, products_per_seller=100)


def make_app(seed=5, checkpoint_interval=0.2, recovery_pause=0.05,
             workload=WorkloadConfig(sellers=3, customers=24,
                                     products_per_seller=5)):
    env = Environment(seed=seed)
    app = StatefunApp(env, AppConfig(
        silos=2, cores_per_silo=4, checkpoint_interval=checkpoint_interval,
        costs=CostModel(recovery_pause=recovery_pause)))
    app.ingest(Dataset(workload, seed=seed))
    return env, app


def run_shoppers(env, app, count, crash_times=()):
    completed = []

    def shopper(customer_id, index):
        product = app.dataset.products[index % len(app.dataset.products)]
        result = yield from app.add_item(
            customer_id, product.seller_id, product.product_id, 1)
        if not result.ok:
            return
        result = yield from app.checkout(
            customer_id, f"o{customer_id}-{index}",
            PaymentMethod.CREDIT_CARD)
        if result.ok:
            completed.append(result.payload["order_id"])

    def crasher():
        last = 0.0
        for when in crash_times:
            yield env.timeout(when - last)
            last = when
            yield from app.runtime.inject_failure()

    # One shopper per customer: no cart sharing.
    for index in range(count):
        env.process(shopper(app.dataset.customer_ids[index], index))
    if crash_times:
        env.process(crasher())
    env.run(until=30.0)
    return completed


def business_outcome(app):
    views = app.audit_views()
    return {
        "orders": sum(len(state.get("orders", {}))
                      for state in views["orders"].values()),
        "stock": sum(item["qty_available"]
                     for item in views["stock"].values()),
        "spend": sum(customer["spent_cents"]
                     for customer in views["customers"].values()),
        "shipments": sum(len(partition.get("shipments", {}))
                         for partition in views["shipments"].values()),
    }


def test_crash_preserves_business_outcome():
    env_a, app_a = make_app()
    clean = run_shoppers(env_a, app_a, 20)
    env_b, app_b = make_app()
    crashed = run_shoppers(env_b, app_b, 20, crash_times=(0.15, 0.4))
    assert app_b.runtime.recoveries == 2
    assert sorted(clean) == sorted(crashed)
    assert business_outcome(app_a) == business_outcome(app_b)


def test_crash_before_first_checkpoint_replays_from_scratch():
    env, app = make_app(checkpoint_interval=0.0)  # no checkpoints
    completed = run_shoppers(env, app, 10, crash_times=(0.05,))
    assert app.runtime.recoveries == 1
    assert len(completed) == 10
    outcome = business_outcome(app)
    assert outcome["orders"] == 10
    assert outcome["shipments"] == 10


def test_each_checkout_egresses_exactly_once_across_crashes():
    env, app = make_app()
    run_shoppers(env, app, 15, crash_times=(0.1, 0.2, 0.3))
    checkout_events = [payload for _, kind, payload
                       in app.runtime.egress_log if kind == "checkout"]
    order_ids = [payload["order_id"] for payload in checkout_events]
    assert len(order_ids) == len(set(order_ids))
    assert len(order_ids) == 15


def test_stock_never_double_decremented_by_replay():
    env, app = make_app()
    initial = sum(item.qty_available
                  for item in app.dataset.stock.values())
    run_shoppers(env, app, 12, crash_times=(0.12,))
    final = business_outcome(app)["stock"]
    # Each of the 12 single-quantity checkouts decrements exactly one.
    assert initial - final == 12


def test_crash_during_quiet_period_is_harmless():
    env, app = make_app()
    run_shoppers(env, app, 8)

    def late_crash():
        yield from app.runtime.inject_failure()

    process = env.process(late_crash())
    env.run(until=process)
    env.run(until=env.now + 2.0)
    assert business_outcome(app)["orders"] == 8
    assert app.runtime.recoveries == 1


def test_record_first_touched_after_a_checkpoint_survives_recovery():
    """Ingestion is out-of-band loading, durable whenever it happens:
    a restore must neither drop a record installed since the last
    checkpoint nor lose the updates replay re-applies to it."""
    env, app = make_app(workload=LARGE)
    assert app.runtime.state_of("product", "1/1") is None
    outcomes = []

    def scenario():
        yield env.timeout(0.3)  # the first periodic checkpoint is behind
        for price in (777, 888):
            app.touch_customer(1)
            app.touch_product(1, 1)
            result = yield from app.add_item(1, 1, 1, 1)
            outcomes.append(result.status)
            result = yield from app.update_price(1, 1, price)
            outcomes.append(result.status)
            yield from app.runtime.inject_failure()

    env.process(scenario())
    env.run(until=5.0)
    assert outcomes == ["ok"] * 4
    assert app.runtime.recoveries == 2
    product = app.runtime.state_of("product", "1/1")
    assert (product["price_cents"], product["version"]) == (888, 3)
    assert app.runtime.state_of("customer", "1") is not None
    assert app.runtime.state_of("seller", "1") is not None


class Probe(StatefulFunction):
    """Records when each message it receives runs."""

    def __init__(self):
        self.runs = []

    def invoke(self, context, payload):
        self.runs.append((context.worker.env.now, context.message))


def test_cross_partition_messages_marked_and_charged():
    """A function-to-function send that leaves its worker's partition
    is marked, pays the shuffle latency on the wire and the shuffle CPU
    in its charge; one that stays pays neither, and an ingress message
    (no sending worker) is never marked."""
    env = Environment(seed=5)
    costs = CostModel()
    runtime = StatefunRuntime(env, AppConfig(
        silos=2, checkpoint_interval=0, costs=costs))
    probe = Probe()
    runtime.register("probe", probe)
    arrivals = []
    arrive = runtime._arrive

    def recording(message):
        arrivals.append(env.now)
        arrive(message)

    runtime._arrive = recording  # Context.send reads it per message
    env.run()  # both workers parked on their empty queues
    sender, other = runtime.workers
    keys = [f"k{index}" for index in range(20)]
    local = next(key for key in keys
                 if runtime.worker_for(("probe", key)) is sender)
    remote = next(key for key in keys
                  if runtime.worker_for(("probe", key)) is other)
    cases = [(remote, costs.cross_partition_latency,
              costs.cross_partition_cpu, True),
             (local, 0.0, 0.0, False)]
    for key, shuffle_latency, shuffle_cpu, crossed in cases:
        arrivals.clear()
        probe.runs.clear()
        sent = env.now
        sender.context.send("probe", key, "ping")
        env.run()
        ((ran, message),) = probe.runs
        assert message.address == ("probe", key)
        assert message.cross_partition is crossed
        assert arrivals == [sent + (costs.delivery_latency
                                    + shuffle_latency)]
        assert ran == arrivals[0] + (costs.function_cpu
                                     + costs.envelope_cpu + shuffle_cpu)
    probe.runs.clear()
    runtime.send_ingress("probe", remote, "ping")
    env.run()
    ((_, message),) = probe.runs
    assert message.is_ingress and not message.cross_partition


def test_recovery_counts_and_checkpoint_cadence():
    env, app = make_app(checkpoint_interval=0.1)
    run_shoppers(env, app, 10, crash_times=(0.25,))
    assert app.runtime.recoveries == 1
    assert app.runtime.checkpoints_taken >= 2


@pytest.mark.parametrize("scenario", [
    # Together these reach every nested write the functions replace:
    # cart adds, reservations and payments (baseline), the return saga
    # (return-storm), allocation and release (duplicate-ingest) and
    # declined payments (payment-flaky).
    "baseline", "return-storm", "duplicate-ingest", "payment-flaky"])
def test_checkpoints_never_change_once_taken(scenario, monkeypatch):
    """State is a value: a checkpoint keeps each address's top level
    and shares everything below it with the live state, so a function
    writing a nested container in place would rewrite history.  No
    catalogue scenario restores a checkpoint, so compare each snapshot
    at the end of the run with what it was when taken.  Checkpoints
    come every 0.1 s instead of 0.5 s: a delivery batch holds its
    partition summaries for a few milliseconds, and at the default
    cadence no checkpoint lands inside that window."""
    taken = []
    snapshot = StatefunRuntime._snapshot_worker_states

    def recording(self, full=False):
        states = snapshot(self, full)
        taken.append((states, repr(states)))
        return states

    def frequent_checkpoints(env, config):
        return StatefunApp(env, dataclasses.replace(
            config, checkpoint_interval=0.1))

    monkeypatch.setattr(StatefunRuntime, "_snapshot_worker_states",
                        recording)
    run_scenario(scenario, frequent_checkpoints, seed=5,
                 duration_scale=0.3)
    assert len(taken) >= 3
    changed = [index for index, (states, when_taken) in enumerate(taken)
               if repr(states) != when_taken]
    assert changed == []

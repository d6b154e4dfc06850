"""Lifecycle state-machine properties, replayed against real runs.

Two layers: pure hypothesis walks over the transition table (every
legal hop advances, every illegal hop raises, finals are absorbing),
and a replay property that runs the full unhappy-path workload — flaky
payments, returns, external ingestion, message loss — on each platform
and re-validates every order's recorded ``history`` trail hop by hop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, AppConfig
from repro.core import (
    BenchmarkDriver,
    Dataset,
    DriverConfig,
    WorkloadConfig,
    audit_app,
)
from repro.core.workload.config import INITIAL_STOCK, TransactionMix
from repro.marketplace.constants import (
    FINAL_STATUSES,
    TRANSITIONS,
    OrderStatus,
)
from repro.marketplace.logic import lifecycle
from repro.runtime import Environment

APP_NAMES = list(ALL_APPS)

ALL_STATUSES = sorted(
    set(TRANSITIONS) | {to for tos in TRANSITIONS.values() for to in tos})


class TestTransitionTable:
    def test_final_statuses_are_absorbing(self):
        for status in FINAL_STATUSES:
            assert not TRANSITIONS.get(status, ()), status

    def test_in_progress_disjoint_from_finals(self):
        assert not set(OrderStatus.IN_PROGRESS) & set(FINAL_STATUSES)

    def test_every_status_reachable_from_created(self):
        seen = {OrderStatus.CREATED}
        frontier = [OrderStatus.CREATED]
        while frontier:
            for to in TRANSITIONS.get(frontier.pop(), ()):
                if to not in seen:
                    seen.add(to)
                    frontier.append(to)
        assert seen == set(ALL_STATUSES)


@st.composite
def legal_walks(draw):
    """A status trail following only legal hops from INVOICED."""
    trail = [OrderStatus.INVOICED]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        hops = TRANSITIONS.get(trail[-1], ())
        if not hops:
            break
        trail.append(draw(st.sampled_from(sorted(hops))))
    return trail


class TestAdvanceProperties:
    @given(legal_walks())
    def test_legal_walk_replays_and_records_history(self, trail):
        order = {"order_id": "o1", "status": trail[0]}
        for hop, status in enumerate(trail[1:], start=1):
            order = lifecycle.advance(order, status, now=float(hop))
        assert order["status"] == trail[-1]
        assert order.get("history", [trail[0]]) == trail

    @given(st.sampled_from(ALL_STATUSES), st.sampled_from(ALL_STATUSES))
    def test_illegal_hops_always_raise(self, current, to):
        order = {"order_id": "o1", "status": current}
        if to in TRANSITIONS.get(current, ()):
            assert lifecycle.advance(order, to, 1.0)["status"] == to
        else:
            with pytest.raises(lifecycle.IllegalTransition):
                lifecycle.advance(order, to, 1.0)

    @given(st.sampled_from(sorted(FINAL_STATUSES)),
           st.sampled_from(ALL_STATUSES))
    def test_finals_never_exited(self, final, to):
        with pytest.raises(lifecycle.IllegalTransition):
            lifecycle.advance({"order_id": "o1", "status": final}, to, 1.0)


def unhappy_path_run(app_name, seed):
    """A short run exercising every saga on ``app_name``."""
    env = Environment(seed=seed)
    app = ALL_APPS[app_name](env, AppConfig(
        silos=2, cores_per_silo=2, approval_rate=0.8,
        drop_probability=0.02))
    workload = WorkloadConfig(
        sellers=3, customers=12, products_per_seller=4,
        duplicate_submit_probability=0.3,
        mix=TransactionMix(checkout=40, price_update=5, product_delete=1,
                           update_delivery=20, dashboard=5,
                           submit_external=15, request_return=14))
    driver = BenchmarkDriver(env, app, workload,
                             DriverConfig(workers=4, warmup=0.2,
                                          duration=1.5, drain=0.5))
    driver.run()
    return app, driver


def iter_orders(app):
    for shard in app.audit_views()["orders"].values():
        yield from shard["orders"].values()


@pytest.mark.parametrize("name", APP_NAMES)
class TestHistoryReplay:
    @given(seed=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=3, deadline=None)
    def test_every_recorded_history_is_a_legal_walk(self, name, seed):
        app, driver = unhappy_path_run(name, seed)
        orders = list(iter_orders(app))
        assert orders, "run produced no orders to replay"
        for order in orders:
            trail = order.get("history") or [order["status"]]
            assert trail[-1] == order["status"]
            for current, to in zip(trail, trail[1:]):
                assert lifecycle.can_advance(current, to), (
                    f"order {order['order_id']}: illegal recorded hop "
                    f"{current!r} -> {to!r} (trail: {trail})")
            for status in trail[:-1]:
                assert status not in FINAL_STATUSES, (
                    f"order {order['order_id']}: left final {status!r} "
                    f"(trail: {trail})")


ITEMS = [{"seller_id": 1, "product_id": 1, "quantity": 3,
          "unit_price_cents": 500}]


def make_app(name, seed=17):
    env = Environment(seed=seed)
    app = ALL_APPS[name](env, AppConfig(silos=2, cores_per_silo=2))
    workload = WorkloadConfig(sellers=3, customers=12,
                              products_per_seller=4)
    app.ingest(Dataset(workload, seed=seed))
    return env, app


def submit(env, app, ext_order_no="E000042"):
    return env.process(app.submit_external("p1", 2, ext_order_no, 1,
                                           [dict(item) for item in ITEMS]))


@pytest.mark.parametrize("name", APP_NAMES)
class TestDuplicateSubmitExactlyOnce:
    def test_racing_and_late_duplicates_create_one_order(self, name):
        env, app = make_app(name)
        first = submit(env, app)
        second = submit(env, app)  # races the first
        env.run(until=env.now + 2.0)
        third = submit(env, app)  # resubmitted long after
        env.run(until=env.now + 2.0)
        results = [p.value for p in (first, second, third)]
        assert all(r.ok for r in results), results
        order_ids = {r.payload["order_id"] for r in results}
        assert len(order_ids) == 1, order_ids
        assert sum(1 for r in results
                   if not r.payload.get("idempotent")) == 1

        views = app.audit_views()
        # Exactly one order carries the external key...
        ext_orders = [order for order in iter_orders(app)
                      if order.get("ext") == "p1/2/E000042"]
        assert len(ext_orders) == 1
        # ...registered exactly once...
        entries = [oid for shard in views["ingestion"].values()
                   for key, oid in shard["entries"].items()
                   if key == "p1/2/E000042"]
        assert len(entries) == 1
        # ...and stock was decremented exactly once.
        assert views["stock"]["1/1"]["qty_available"] == INITIAL_STOCK - 3
        assert views["stock"]["1/1"]["qty_reserved"] == 0

    def test_audit_confirms_exactly_once(self, name):
        env, app = make_app(name)
        submit(env, app)
        submit(env, app)
        env.run(until=env.now + 2.0)
        result = audit_app(app).results["C6-exactly-once-ingest"]
        assert result.passed
        assert result.checked >= 1

    def test_distinct_orders_not_deduplicated(self, name):
        env, app = make_app(name)
        submit(env, app, "E000001")
        submit(env, app, "E000002")
        env.run(until=env.now + 2.0)
        ext_keys = {order.get("ext") for order in iter_orders(app)
                    if order.get("ext")}
        assert ext_keys == {"p1/2/E000001", "p1/2/E000002"}
        views = app.audit_views()
        assert views["stock"]["1/1"]["qty_available"] == INITIAL_STOCK - 6

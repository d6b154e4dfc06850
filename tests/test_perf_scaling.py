"""Scaling regression: host work per transaction must not grow with
run length.

Marketplace state (orders per customer, packages per partition, seller
dashboard entries) grows for the whole run.  The simulator is linear in
run length only while every state update costs O(touched), not
O(collection): a ``deepcopy`` of grain state (before the copy-on-write
engine) or a ``dict(view)`` of a growing collection (before
``repro.cow.assoc_in``) makes it quadratic.  Wall time on CI machines
is too noisy to gate (+-25 %), so every pin below is an exact count:
Python function calls, kernel events and processes per committed
transaction, and Python calls of one update and of one MVCC scan.
"""

import cProfile
import functools
import gc

import pytest

from repro.apps import ALL_APPS, AppConfig
from repro.core import get_scenario
from repro.marketplace.logic import seller as seller_logic
from repro.runtime import Environment
from repro.runtime.process import Process
from repro.sqlstore import MVCCEngine, eq, isin
from repro.txn.context import TransactionContext
from repro.txn.participant import TransactionParticipant

#: Allowed growth of calls/tx from ``duration_scale`` 0.1 to 0.8.
#: Measured: 421 -> 360 (start-up cost amortises, nothing grows; 524
#: -> 484 while a transactional read was a ``CowState`` view);
#: the retired ``dict(view)`` idiom measured 1 220 -> 1 517 (+24 %,
#: against 1 162 -> 1 043 at the time) over the same span, but only
#: +4 % up to 0.4 — hence the long cell.
MAX_GROWTH = 1.10

#: Python calls per committed transaction at ``duration_scale`` 0.8.
#: Measured 360; 484 while a transactional read was a ``CowState``
#: view, 530 while an uncontended lock grant called ``held_by``,
#: ``_conflicts`` and ``_wake``, and 679 while a grain call was a
#: message, a turn and two closures reading kernel state through
#: properties.
MAX_CALLS_PER_TX = 400


#: Kernel events and ``Process`` objects per committed transaction.
#: Measured 33.1 / 0.19 at ``duration_scale`` 0.1 and 32.4 / 0.02 at
#: 0.8; a process per grain call and per 2PC participant measured
#: 101.8 / 19.1 and 96.2 / 16.7.
MAX_EVENTS_PER_TX = 45
MAX_PROCESSES_PER_TX = 1


@functools.lru_cache(maxsize=None)
def host_work_per_tx(duration_scale: float) -> dict[str, float]:
    """Python calls (cProfile, builtins off), kernel events and
    ``Process`` objects per committed transaction (one run per cell,
    shared by the tests below)."""
    env = Environment(seed=7)
    app = ALL_APPS["orleans-transactions"](
        env, AppConfig(silos=2, cores_per_silo=2))
    driver = get_scenario("baseline").build_driver(
        env, app, duration_scale=duration_scale, data_seed=7)
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    before = env.events_processed
    metrics = profiler.runcall(driver.run)
    committed = sum(op.ok for op in metrics.ops.values())
    stats = profiler.getstats()
    return {
        "calls": sum(entry.callcount - entry.reccallcount
                     for entry in stats) / committed,
        "events": (env.events_processed - before) / committed,
        "processes": sum(entry.callcount for entry in stats
                         if entry.code is Process.__init__.__code__)
        / committed,
    }


def test_calls_per_tx_do_not_grow_with_run_length():
    short = host_work_per_tx(0.1)["calls"]
    long = host_work_per_tx(0.8)["calls"]
    assert long < short * MAX_GROWTH, (
        f"calls/tx grew {long / short:.2f}x between duration_scale 0.1 "
        f"({short:.0f}) and 0.8 ({long:.0f}); an O(state) copy or scan "
        f"is back on the hot path")
    assert long <= MAX_CALLS_PER_TX, (
        f"{long:.0f} Python calls per transaction: wrapper frames are "
        f"back on the grain-call path (see the frame budget in "
        f"test_event_budgets.py)")


@pytest.mark.parametrize("duration_scale", [0.1, 0.8])
def test_events_and_processes_per_tx_are_bounded(duration_scale):
    cell = host_work_per_tx(duration_scale)
    assert cell["events"] <= MAX_EVENTS_PER_TX, (
        f"{cell['events']:.1f} kernel events per transaction: work "
        f"that never suspends is scheduled event by event again (a "
        f"process per grain turn or per 2PC participant?)")
    assert cell["processes"] <= MAX_PROCESSES_PER_TX, (
        f"{cell['processes']:.2f} processes per transaction: a Process "
        f"is back on a per-message or per-participant path")


def calls_for_one_upsert(entries: int) -> int:
    """Python calls (cProfile primitive, builtins off) of read +
    upsert_entry + write on a seller that already holds ``entries``
    dashboard entries."""
    state = seller_logic.new_seller(1)
    state["entries"] = {
        f"o{index}": {"order_id": f"o{index}", "customer_id": index,
                      "status": "in_transit", "amount_cents": 100,
                      "updated_at": 0.0}
        for index in range(entries)}
    env = Environment(seed=1)
    participant = TransactionParticipant(
        env, ("seller", "1"), log_write_latency=0.001, initial_state=state)
    ctx = TransactionContext(env.now)
    order = {"order_id": "new", "customer_id": 7, "status": "in_transit",
             "updated_at": 1.0,
             "items": [{"seller_id": 1, "quantity": 1,
                        "unit_price_cents": 500}]}

    def txn():
        read = yield from participant.read(ctx)
        yield from participant.write(
            ctx, seller_logic.upsert_entry(read, order))

    process = env.process(txn())
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    gc.collect()
    gc.disable()
    try:
        profiler.runcall(env.run, until=process)
    finally:
        gc.enable()
    staged = participant._staged[ctx.txid]
    assert len(staged["entries"]) == entries + 1
    assert staged["entries"]["o0"] is state["entries"]["o0"]
    return sum(entry.callcount - entry.reccallcount
               for entry in profiler.getstats())


def test_one_upsert_costs_the_same_python_calls_at_any_seller_size():
    small = calls_for_one_upsert(10)
    large = calls_for_one_upsert(5000)
    assert small == large, (
        f"read + upsert_entry + write made {small} Python calls on a "
        f"10-entry seller but {large} on a 5 000-entry one: the update "
        f"visits untouched records again")


def calls_for_one_scan(matching: int) -> int:
    """Python calls (cProfile primitive, builtins off) of one indexed
    ``Snapshot.scan(eq(...) & isin(...))`` that returns ``matching``
    rows from a table three times that size with retired history."""
    engine = MVCCEngine()
    table = engine.create_table(
        "entries", ["entry_id", "seller_id", "status"],
        primary_key="entry_id")
    table.create_index("seller_id")
    table.create_index("status")
    txn = engine.begin()
    for index in range(3 * matching):
        txn.insert("entries", {"entry_id": index, "seller_id": index % 3,
                               "status": "in_transit"})
    txn.commit()
    txn = engine.begin()
    for index in range(0, 3 * matching, 2):
        txn.update("entries", index, {"status": "delivered"})
    txn.commit()
    snapshot = engine.snapshot()
    predicate = eq("seller_id", 0) & isin("status",
                                          ("in_transit", "delivered"))
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    # A collection inside the scan would finalise earlier tests'
    # generators and count their frames.
    gc.collect()
    gc.disable()
    try:
        rows = profiler.runcall(snapshot.scan, "entries", predicate)
    finally:
        gc.enable()
    assert len(rows) == matching
    return sum(entry.callcount - entry.reccallcount
               for entry in profiler.getstats())


def test_one_scan_costs_the_same_python_calls_at_any_size():
    small = calls_for_one_scan(100)
    large = calls_for_one_scan(1000)
    assert small == large, (
        f"one indexed MVCC scan made {small} Python calls for 100 "
        f"matching rows but {large} for 1 000: a per-row call (a "
        f"visibility helper, a predicate closure, a sort-key lambda or "
        f"a Row constructor) is back in the scan loop")

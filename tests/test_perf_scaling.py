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
transaction, and Python calls of one update and of one table scan.
"""

import cProfile
import functools
import gc
import sys

import pytest

from repro.apps import ALL_APPS, AppConfig
from repro.core import get_scenario
from repro.marketplace.constants import OrderStatus
from repro.marketplace.logic import seller as seller_logic
from repro.runtime import Environment
from repro.runtime.process import Process
from repro.sqlstore import Table, eq, isin
from repro.txn.context import TransactionContext
from repro.txn.participant import TransactionalGrain, TransactionParticipant

#: Allowed growth of calls/tx from ``duration_scale`` 0.1 to 0.8.
#: Measured: 295 -> 235 (start-up cost amortises, nothing grows;
#: 315 -> 256 while a grain call's hop, CPU hold and reply went
#: through ``call_after``, ``Resource.hold`` and ``trigger_after``,
#: 368 -> 306 while a 2PC transaction was a generator, 421 -> 360
#: while a grain call was 15 frames, 524 -> 484 while a
#: transactional read was a ``CowState`` view);
#: the retired ``dict(view)`` idiom measured 1 220 -> 1 517 (+24 %,
#: against 1 162 -> 1 043 at the time) over the same span, but only
#: +4 % up to 0.4 — hence the long cell.
MAX_GROWTH = 1.10

#: Python calls per committed transaction at ``duration_scale`` 0.8.
#: Measured 198.6 (bound: measured + 4 %).
MAX_CALLS_PER_TX = 207


#: Python calls per committed transaction of the ``orleans-eventual``
#: cell at ``duration_scale`` 0.8: every service interaction is a
#: grain call and checkout's stock reservation a fan-out.  Measured
#: 168.2 (bound: measured + 4 %).
MAX_EVENTUAL_CALLS_PER_TX = 175


#: Python calls per committed transaction of the ``statefun`` cell at
#: ``duration_scale`` 0.8.  Measured 125.2 (bound: measured + 4 %).
MAX_STATEFUN_CALLS_PER_TX = 131


#: Python calls per committed transaction of the ``orleans-eventual``
#: cell on the ``million-keys`` scenario at ``duration_scale`` 0.3,
#: 500 activations per silo: the one tier-1 cell whose working set
#: outgrows its budget, so grains are created, filed and paged out on
#: the path.  Measured 257.3 (bound: measured + 4 %); 262.0 while the
#: pager deep-cloned every snapshot it wrote and read back, and 284.3
#: while a grain had Python ``__init__`` methods, an activation was
#: filed through ``note_activation`` and ``GrainDirectory.register``,
#: and a page-out snapshot was a comprehension over ``paged_attrs``.
MAX_PAGING_CALLS_PER_TX = 268


#: Kernel events and ``Process`` objects per committed transaction.
#: Measured 33.1 / 0.19 at ``duration_scale`` 0.1 and 32.4 / 0.02 at
#: 0.8; a process per grain call and per 2PC participant measured
#: 101.8 / 19.1 and 96.2 / 16.7.
MAX_EVENTS_PER_TX = 45
MAX_PROCESSES_PER_TX = 1


@functools.lru_cache(maxsize=None)
def host_work_per_tx(duration_scale: float,
                     app_name: str = "orleans-transactions",
                     scenario: str = "baseline",
                     activation_limit: int | None = None
                     ) -> dict[str, float]:
    """Python calls (cProfile, builtins off), kernel events and
    ``Process`` objects per committed transaction (one run per cell,
    shared by the tests below)."""
    env = Environment(seed=7)
    app = ALL_APPS[app_name](env, AppConfig(
        silos=2, cores_per_silo=2, activation_limit=activation_limit))
    driver = get_scenario(scenario).build_driver(
        env, app, duration_scale=duration_scale, data_seed=7)
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    before = env.events_processed
    metrics = profiler.runcall(driver.run)
    committed = sum(op.ok for op in metrics.ops.values())
    stats = profiler.getstats()
    return {
        "evictions": app.cluster.working_set.evictions
        if activation_limit else 0,
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


def test_eventual_calls_per_tx_are_bounded():
    calls = host_work_per_tx(0.8, "orleans-eventual")["calls"]
    assert calls <= MAX_EVENTUAL_CALLS_PER_TX, (
        f"{calls:.0f} Python calls per orleans-eventual transaction: "
        f"wrapper frames are back on the grain-call or fan-out path "
        f"(see the frame budgets in test_event_budgets.py)")


def test_statefun_calls_per_tx_are_bounded():
    calls = host_work_per_tx(0.8, "statefun")["calls"]
    assert calls <= MAX_STATEFUN_CALLS_PER_TX, (
        f"{calls:.0f} Python calls per statefun transaction: wrapper "
        f"frames are back on the message path (see the statefun frame "
        f"budget in test_event_budgets.py)")


def test_paging_calls_per_tx_are_bounded():
    cell = host_work_per_tx(0.3, "orleans-eventual", "million-keys", 500)
    assert cell["evictions"] > 0, "the budget never bit: nothing paged"
    assert cell["calls"] <= MAX_PAGING_CALLS_PER_TX, (
        f"{cell['calls']:.0f} Python calls per transaction with the "
        f"pager running: frames are back on grain construction, "
        f"activation filing or the page-out step (see "
        f"test_working_set.py and test_event_budgets.py)")


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
        env, ("seller", "1"), initial_state=state)
    ctx = TransactionContext(env.now)
    grain = TransactionalGrain()
    grain._participant = participant
    grain.current_txn = ctx
    order = {"order_id": "new", "customer_id": 7, "status": "in_transit",
             "updated_at": 1.0,
             "items": [{"seller_id": 1, "quantity": 1,
                        "unit_price_cents": 500}]}

    def txn():
        read = yield from grain.txn_read()
        yield from grain.txn_write(seller_logic.upsert_entry(read, order))

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
    ``Table.scan(eq(...) & isin(...))`` that returns ``matching`` rows
    from a table three times that size, half of whose rows have moved
    to another status bucket."""
    table = Table(["entry_id", "seller_id", "status"],
                  primary_key="entry_id", indexes=("seller_id", "status"))
    table.upsert([{"entry_id": index, "seller_id": index % 3,
                   "status": "in_transit"}
                  for index in range(3 * matching)])
    table.update(isin("entry_id", range(0, 3 * matching, 2)),
                 {"status": "delivered"})
    predicate = eq("seller_id", 0) & isin("status",
                                          ("in_transit", "delivered"))
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    # A collection inside the scan would finalise earlier tests'
    # generators and count their frames.
    gc.collect()
    gc.disable()
    try:
        rows = profiler.runcall(table.scan, predicate)
    finally:
        gc.enable()
    assert len(rows) == matching
    return sum(entry.callcount - entry.reccallcount
               for entry in profiler.getstats())


def test_one_scan_costs_the_same_python_calls_at_any_size():
    small = calls_for_one_scan(100)
    large = calls_for_one_scan(1000)
    assert small == large, (
        f"one indexed table scan made {small} Python calls for 100 "
        f"matching rows but {large} for 1 000: a per-row call (a "
        f"predicate closure, a sort-key lambda or a row constructor) "
        f"is back in the scan loop")


def lines_for_one_retire_pass(completed: int) -> tuple[int, dict]:
    """Python lines executed by one delivery batch's retire pass when
    ``completed`` orders have already completed and been retired, and
    two orders are in transit, one of which has just completed; plus
    the statuses of the rows that were in transit."""
    app = ALL_APPS["customized-orleans"](Environment(seed=1), AppConfig())
    orders = {f"done-{index}": {"status": OrderStatus.COMPLETED}
              for index in range(completed)}
    orders["new"] = {"status": OrderStatus.COMPLETED}
    orders["open"] = {"status": OrderStatus.IN_TRANSIT}
    grain = app.cluster.grain_instance(app._grain("order", "7"))
    grain.participant.committed_state = {"orders": orders}
    app.sql.upsert([{"entry_id": f"{order_id}/1", "order_id": order_id,
                     "seller_id": 1, "customer_id": 7, "amount_cents": 1,
                     "status": (OrderStatus.IN_TRANSIT
                                if order_id in ("new", "open")
                                else OrderStatus.COMPLETED)}
                    for order_id in orders])
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    sys.settrace(tracer)
    try:
        app._retire_completed_entries()
    finally:
        sys.settrace(None)
    return lines, {row["order_id"]: row["status"]
                   for row in app.sql.scan(isin("order_id",
                                                ("new", "open")))}


def test_one_retire_pass_does_not_grow_with_completed_orders():
    """A delivery batch walks only the in-transit rows and reads their
    order grains, never every order placed so far."""
    small, statuses = lines_for_one_retire_pass(10)
    large, _ = lines_for_one_retire_pass(1000)
    assert statuses == {"new": OrderStatus.COMPLETED,
                        "open": OrderStatus.IN_TRANSIT}
    assert small == large, (
        f"one retire pass ran {small} Python lines beside 10 completed "
        f"orders but {large} beside 1 000: it walks completed orders")

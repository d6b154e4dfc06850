"""A cross-stack differential oracle.

All four stacks run the same marketplace logic behind the same six
request operations plus ``update_delivery`` and ``dashboard``.  On a
serial, fault-free script no isolation anomaly can tell them apart, so
every stack must give the same replies and end in the same business
state; any difference is either a named, by-design property of one
stack or a bug (differential testing, McKeeman 1998, with the four
stacks as the four implementations).

The comparison normalises what legitimately differs between stacks:

* ``*_at`` fields are simulated timestamps, and the stacks' latencies
  differ by design;
* order ``items`` are sorted (the stacks gather a checkout's items in
  different orders);
* a checkout reply's ``invoice``, ``package_count`` and ``order_id``
  are dropped: statefun answers a checkout from its shipment function,
  which knows the package count but not the invoice, and names the
  order even in a rejection; the actor stacks answer from the order
  grain, which knows the invoice.  The order id is the request's own,
  and the order state, which is compared, holds the rest;
* a dashboard entry's ``entry_id`` and ``seller_id`` are dropped: the
  customized stack answers with its SQL rows, which carry both;
* statefun's empty ``pending*`` bookkeeping (its in-flight request
  tables) is dropped;
* a record equal to its service's fresh state was never written: the
  eventual and statefun stacks materialise one when a request is
  rejected, the transactional stacks abort and keep none;
* the broker's event log is not compared: each stack wires its own
  subscribers and event kinds (the event-ordering criterion audits
  it).

One divergence is allowed, by name:

* ``eventual seller entry status`` — ``orleans-eventual`` updates a
  seller's dashboard entries by unordered events, so an entry may end
  at an older status than its order, in the seller's state and in
  the dashboard's reply.

No criterion counts it yet, so the allowance is as narrow as it can
be: with every entry's status dropped the two results must be equal,
and a fixed script pins that the divergence does happen.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, AppConfig
from repro.core import Dataset, WorkloadConfig
from repro.marketplace.constants import PaymentMethod
from repro.marketplace.logic.cart import new_cart
from repro.marketplace.logic.order import new_customer_orders
from repro.marketplace.logic.shipment import new_shipments
from repro.runtime import Environment

WORLD = WorkloadConfig(sellers=3, products_per_seller=4, customers=8)
CONFIG = AppConfig(silos=2, cores_per_silo=2)
#: Simulated seconds between a reply and the next request: twenty
#: times the slowest single hop, so an operation's asynchronous
#: effects (replication, events, the checkout saga) have landed before
#: the next operation starts and no two operations overlap.
QUIET = 0.01
CUSTOMERS = range(1, WORLD.customers + 1)
PRODUCTS = [(product.seller_id, product.product_id)
            for product in Dataset(WORLD, seed=1).products]
SELLERS = sorted({seller_id for seller_id, _ in PRODUCTS})

#: The one allowed divergence: its name and the stack it belongs to.
EVENTUAL_SELLER_ENTRY_STATUS = "eventual seller entry status"
ALLOWED = {"orleans-eventual": EVENTUAL_SELLER_ENTRY_STATUS}

#: A view's fresh record for a key: never written by any operation.
FRESH = {
    "carts": lambda key: new_cart(int(key)),
    "orders": lambda key: new_customer_orders(int(key)),
    "shipments": lambda key: new_shipments(),
}

operations = st.one_of(
    st.tuples(st.just("add_item"), st.sampled_from(CUSTOMERS),
              st.sampled_from(PRODUCTS), st.integers(1, 3)),
    st.tuples(st.just("checkout"), st.sampled_from(CUSTOMERS),
              st.sampled_from(PaymentMethod.ALL)),
    st.tuples(st.just("update_price"), st.sampled_from(PRODUCTS),
              st.integers(100, 9_000)),
    st.tuples(st.just("delete_product"), st.sampled_from(PRODUCTS)),
    st.tuples(st.just("update_delivery")),
    # The n-th checkout of the script so far (modulo their number).
    st.tuples(st.just("request_return"), st.integers(0, 50)),
    st.tuples(st.just("dashboard"), st.sampled_from(SELLERS)),
)
scripts = st.lists(operations, min_size=10, max_size=60)

#: Reply fields one stack family reports and the others do not.
STACK_SPECIFIC_REPLY_FIELDS = {
    "checkout": {"invoice", "package_count", "order_id"}}
#: Columns of the customized stack's dashboard rows beyond an entry's.
SQL_ROW_FIELDS = {"entry_id", "seller_id"}


def requests(app, script):
    """The script's operations as process helpers of ``app``, in order
    (checkout ``i`` of the script places order ``o<i>``)."""
    checkouts = []
    for index, (name, *args) in enumerate(script):
        if name == "add_item":
            customer, (seller, product), quantity = args
            yield app.add_item(customer, seller, product, quantity)
        elif name == "checkout":
            customer, method = args
            checkouts.append((customer, f"o{index}"))
            yield app.checkout(customer, f"o{index}", method)
        elif name == "update_price":
            (seller, product), price = args
            yield app.update_price(seller, product, price)
        elif name == "delete_product":
            yield app.delete_product(*args[0])
        elif name == "update_delivery":
            yield app.update_delivery()
        elif name == "request_return":
            if checkouts:
                yield app.request_return(
                    *checkouts[args[0] % len(checkouts)])
        else:
            yield app.dashboard(*args)


def run_script(stack, script):
    """Run ``script`` serially on a fresh ``stack``: each operation
    starts ``QUIET`` after the reply to the one before.  Returns the
    replies and the end state."""
    env = Environment(seed=1)
    app = ALL_APPS[stack](env, CONFIG)
    app.ingest(Dataset(WORLD, seed=1))
    replies = []

    def driver():
        for request in requests(app, script):
            result = yield from request
            yield env.timeout(QUIET)
            replies.append(normalise_reply(result))

    env.run(until=env.process(driver()))
    env.run(until=env.now + 5.0)  # let in-flight events settle
    views = app.audit_views()
    del views["event_log"]
    state = {view: {key: normalise(record)
                    for key, record in records.items()}
             for view, records in views.items()}
    for view, fresh in FRESH.items():
        records = state[view]
        for key in [key for key, record in records.items()
                    if record == normalise(fresh(key))]:
            del records[key]
    return replies, state


def normalise_reply(result):
    """``(status, operation, payload)`` of ``result``, normalised."""
    dropped = STACK_SPECIFIC_REPLY_FIELDS.get(result.operation, ())
    payload = {field: value for field, value in result.payload.items()
               if field not in dropped}
    if "entries" in payload:
        payload["entries"] = [
            {field: value for field, value in entry.items()
             if field not in SQL_ROW_FIELDS}
            for entry in payload["entries"]]
    return normalise((result.status, result.operation, payload))


def normalise(value):
    """``value`` without timestamps, statefun's empty ``pending*``
    tables, and with order ``items`` sorted."""
    if isinstance(value, dict):
        return {key: (sorted(normalise(item),
                             key=lambda entry: sorted(entry.items()))
                      if key == "items" and isinstance(item, list)
                      else normalise(item))
                for key, item in value.items()
                if not key.endswith("_at")
                and not (key.startswith("pending") and not item)}
    if isinstance(value, (list, tuple)):
        return type(value)(normalise(item) for item in value)
    return value


def without_seller_entry_status(result):
    """A ``(replies, state)`` result with the status of every seller
    dashboard entry dropped, in the sellers' state and in dashboard
    replies alike."""
    replies, state = result

    def entry(fields):
        return {field: value for field, value in fields.items()
                if field != "status"}

    replies = [(status, operation, {
        **payload, "entries": [entry(item) for item in payload["entries"]]})
        if operation == "dashboard" and status == "ok"
        else (status, operation, payload)
        for status, operation, payload in replies]
    sellers = {key: {**seller, "entries": {
        order_id: entry(fields)
        for order_id, fields in seller.get("entries", {}).items()}}
        for key, seller in state["sellers"].items()}
    return replies, {**state, "sellers": sellers}


def divergence(reference, other):
    """The name of the allowed divergence that explains the difference
    between two ``(replies, state)`` results (None: they are equal);
    raises if no allowed one does."""
    if reference == other:
        return None
    reference = without_seller_entry_status(reference)
    other = without_seller_entry_status(other)
    assert reference[0] == other[0], "replies differ"
    assert reference[1] == other[1], "end states differ"
    return EVENTUAL_SELLER_ENTRY_STATUS


@settings(max_examples=100, deadline=None)
@given(scripts)
def test_serial_scripts_end_in_the_same_state_on_every_stack(script):
    reference = run_script("orleans-transactions", script)
    for stack in ALL_APPS:
        found = divergence(reference, run_script(stack, script))
        assert found in (None, ALLOWED.get(stack)), (stack, found)


def test_the_allowed_divergence_is_not_vacuous():
    """A fixed script on which ``orleans-eventual`` does end with a
    stale seller entry: the allow-list names a divergence that
    happens, and the other stacks still agree exactly."""
    script = [("add_item", 1, PRODUCTS[0], 1),
              ("checkout", 1, PaymentMethod.CREDIT_CARD),
              ("dashboard", PRODUCTS[0][0])]
    reference = run_script("orleans-transactions", script)
    found = {stack: divergence(reference, run_script(stack, script))
             for stack in ALL_APPS}
    assert found == {**dict.fromkeys(ALL_APPS), **ALLOWED}


@pytest.mark.parametrize("stack", list(ALL_APPS))
def test_a_rejected_request_leaves_only_fresh_records(stack):
    """The fresh-record normalisation hides only never-written state:
    a checkout of an empty cart is rejected on every stack and leaves
    nothing behind once normalised."""
    replies, state = run_script(stack, [("checkout", 3, "boleto")])
    assert replies == [("rejected", "checkout", {"reason": "empty_cart"})]
    assert "3" not in state["carts"] and "3" not in state["orders"]

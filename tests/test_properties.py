"""Property-based tests (hypothesis) on core data structures/invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marketplace import logic
from repro.runtime import Environment


# ---------------------------------------------------------------------------
# Stock reservation protocol never violates its invariant.
# ---------------------------------------------------------------------------
@st.composite
def stock_operations(draw):
    initial = draw(st.integers(min_value=0, max_value=50))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["reserve", "confirm", "cancel", "restock"]),
        st.integers(min_value=1, max_value=10)), max_size=30))
    return initial, ops


@given(stock_operations())
def test_stock_invariant_holds_under_any_op_sequence(scenario):
    initial, ops = scenario
    state = logic.stock.new_item(1, 1, initial)
    for op, qty in ops:
        if op == "reserve":
            state, _ = logic.stock.reserve(state, qty)
        elif op == "confirm":
            qty = min(qty, state["qty_reserved"])
            if qty > 0:
                state = logic.stock.confirm_reservation(state, qty)
        elif op == "cancel":
            state = logic.stock.cancel_reservation(state, qty)
        else:
            state = logic.stock.restock(state, qty)
        assert logic.stock.is_consistent(state), (op, qty, state)


# ---------------------------------------------------------------------------
# Cart totals are non-negative and checkout preserves item data.
# ---------------------------------------------------------------------------
cart_items = st.builds(
    dict,
    seller_id=st.integers(min_value=1, max_value=5),
    product_id=st.integers(min_value=1, max_value=10),
    quantity=st.integers(min_value=1, max_value=9),
    unit_price_cents=st.integers(min_value=0, max_value=10_000),
    price_version=st.integers(min_value=1, max_value=5),
    voucher_cents=st.integers(min_value=0, max_value=2_000),
)


@given(st.lists(cart_items, min_size=1, max_size=10))
def test_cart_total_is_never_negative(items):
    state = logic.cart.new_cart(1)
    for entry in items:
        state = logic.cart.add_item(state, entry)
    assert logic.cart.total_cents(state) >= 0


@given(st.lists(cart_items, min_size=1, max_size=10))
def test_checkout_total_matches_order_total(items):
    state = logic.cart.new_cart(1)
    for entry in items:
        state = logic.cart.add_item(state, entry)
    expected = logic.cart.total_cents(state)
    state, sealed = logic.cart.seal_for_checkout(state)
    orders = logic.order.new_customer_orders(1)
    orders, order = logic.order.assemble(orders, "o1", sealed, now=0.0)
    assert order["total_cents"] == expected


# ---------------------------------------------------------------------------
# The DES kernel orders timeouts correctly for any delay multiset.
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=30))
def test_kernel_fires_timeouts_in_nondecreasing_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Consistent-hash placement is stable and balanced-ish.
# ---------------------------------------------------------------------------
@given(st.sets(st.text(min_size=1, max_size=12), min_size=10, max_size=80))
@settings(max_examples=30)
def test_placement_deterministic_across_instances(keys):
    from repro.actors.placement import ConsistentHashPlacement

    class FakeSilo:
        def __init__(self, name):
            self.name = name

    def build():
        placement = ConsistentHashPlacement()
        for index in range(4):
            placement.add_silo(FakeSilo(f"s{index}"))
        return placement

    p1, p2 = build(), build()
    for key in keys:
        assert p1.place("T", key).name == p2.place("T", key).name

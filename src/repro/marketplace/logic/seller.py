"""Seller service logic: the seller dashboard's materialised view.

The dashboard consists of two queries: (1) the financial amount of
orders in progress by the seller, and (2) the tuples used to compute
that amount.  The consistency criterion requires both to reflect the
same snapshot of the application state.  In the event-driven
implementations this view is maintained incrementally from order and
payment events — which is what makes the two reads able to diverge.
"""

from __future__ import annotations

from operator import itemgetter

from repro.cow import assoc_in, dissoc_in
from repro.marketplace.constants import OrderStatus

_amount = itemgetter("amount_cents")
_order_id = itemgetter("order_id")

#: The seller-entry status each order event sets (by event kind).
#: ``order_created`` inserts the entry and ``order_returned`` reverses
#: revenue instead; other kinds leave the view alone.
EVENT_STATUS = {
    "payment_confirmed": OrderStatus.PAYMENT_PROCESSED,
    "payment_failed": OrderStatus.CANCELED,
    "shipment_notification": OrderStatus.IN_TRANSIT,
    "order_completed": OrderStatus.COMPLETED,
}


def new_seller(seller_id: int, name: str = "", city: str = "") -> dict:
    return {"seller_id": seller_id, "name": name, "city": city,
            "entries": {}, "deliveries": 0, "revenue_cents": 0,
            "returns": 0}


def seller_share_cents(order: dict, seller_id: int) -> int:
    """The part of an order's total attributable to one seller."""
    share = 0
    for item in order["items"]:
        if item["seller_id"] == seller_id:
            subtotal = (item["quantity"] * item["unit_price_cents"]
                        - item.get("voucher_cents", 0))
            share += max(subtotal, 0)
    return share


def upsert_entry(state: dict, order: dict) -> dict:
    """Insert/update the dashboard entry for an in-progress order."""
    seller_id = state["seller_id"]
    amount = seller_share_cents(order, seller_id)
    if amount == 0:
        return state
    return assoc_in(state, ("entries", order["order_id"]), {
        "order_id": order["order_id"],
        "customer_id": order["customer_id"],
        "status": order["status"],
        "amount_cents": amount,
        "updated_at": order["updated_at"],
    })


def update_entry_status(state: dict, order_id: str, status: str,
                        now: float) -> dict:
    """Track a status change; terminal statuses retire the entry."""
    entry = state["entries"].get(order_id)
    if entry is None:
        return state
    if status in OrderStatus.IN_PROGRESS:
        return assoc_in(state, ("entries", order_id),
                        {**entry, "status": status, "updated_at": now})
    state = dissoc_in(state, ("entries", order_id))
    if status == OrderStatus.COMPLETED:
        state = assoc_in(state, ("revenue_cents",),
                         state["revenue_cents"] + entry["amount_cents"])
        state = assoc_in(state, ("deliveries",), state["deliveries"] + 1)
    return state


def record_return(state: dict, amount_cents: int) -> dict:
    """Ledger reversal for a returned/defective order's seller share.

    The delivery already happened so ``deliveries`` stands; the revenue
    recognised at completion is handed back and the return counted.
    """
    return {**state,
            "revenue_cents": state["revenue_cents"] - amount_cents,
            "returns": state.get("returns", 0) + 1}


def entries_total_cents(entries) -> int:
    """The amounts of dashboard entries, summed at C speed."""
    return sum(map(_amount, entries))


def dashboard_amount(state: dict) -> int:
    """Query 1: financial amount of orders in progress."""
    return entries_total_cents(state["entries"].values())


def dashboard_entries(state: dict) -> list[dict]:
    """Query 2: the tuples behind query 1 (sorted for determinism).

    Entries are copied on the way out (they are frozen state)."""
    return sorted(map(dict, state["entries"].values()), key=_order_id)

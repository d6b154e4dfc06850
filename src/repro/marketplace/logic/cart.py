"""Cart service logic: item management and checkout assembly.

The cart holds *replicated* product data (price and version).  Price
updates and product deletions arrive as events; how stale the replicas
may be is exactly the replication criterion the benchmark audits.
"""

from __future__ import annotations

import typing

from repro.cow import assoc_in, dissoc_in

OPEN = "open"
CHECKING_OUT = "checking_out"


def new_cart(customer_id: int) -> dict:
    """Initial cart state for a customer."""
    return {"customer_id": customer_id, "status": OPEN, "items": {},
            "checkouts": 0}


def add_item(state: dict, item: typing.Mapping) -> dict:
    """Add (or merge) an item; returns the new cart state."""
    if state["status"] != OPEN:
        raise ValueError("cart is checking out; cannot add items")
    key = f"{item['seller_id']}/{item['product_id']}"
    existing = state["items"].get(key)
    if existing is not None:
        merged = dict(existing)
        merged["quantity"] += item["quantity"]
    else:
        merged = dict(item)
    return assoc_in(state, ("items", key), merged)


def remove_item(state: dict, key: str) -> dict:
    """Remove the item under ``key`` (seller/product); no-op if absent."""
    if state["status"] != OPEN:
        raise ValueError("cart is checking out; cannot remove items")
    if key not in state["items"]:
        return state
    return dissoc_in(state, ("items", key))


def apply_price_update(state: dict, key: str, price_cents: int,
                       version: int) -> tuple[dict, bool]:
    """Apply a replicated price update to the cart.

    Returns (new state, applied?).  Stale updates (version not newer
    than the replica's) are ignored — last-writer-wins per product.
    """
    items = state["items"]
    item = items.get(key)
    if item is None or item.get("price_version", 0) >= version:
        return state, False
    new_item = {**item, "unit_price_cents": price_cents,
                "price_version": version}
    return assoc_in(state, ("items", key), new_item), True


def apply_product_delete(state: dict, key: str) -> tuple[dict, bool]:
    """Remove a deleted product's item from the cart (replicated)."""
    if key not in state["items"]:
        return state, False
    return dissoc_in(state, ("items", key)), True


def seal_for_checkout(state: dict) -> tuple[dict, list[dict]]:
    """Freeze the cart for checkout; returns (new state, items list).

    An empty cart cannot be checked out.  The returned items are the
    checkout's transaction input; the cart is cleared and reopened.
    """
    if state["status"] != OPEN:
        raise ValueError("cart already checking out")
    items = [dict(item) for item in state["items"].values()]
    if not items:
        raise ValueError("cannot check out an empty cart")
    new_state = {**state, "items": {}, "status": OPEN,
                 "checkouts": state.get("checkouts", 0) + 1}
    return new_state, items


def item_count(state: dict) -> int:
    return len(state["items"])


def total_cents(state: dict) -> int:
    """Current cart total under the replicated prices."""
    total = 0
    for item in state["items"].values():
        subtotal = (item["quantity"] * item["unit_price_cents"]
                    - item.get("voucher_cents", 0))
        total += max(subtotal, 0)
    return total

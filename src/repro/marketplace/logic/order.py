"""Order service logic: order assembly, invoicing and status tracking.

The order service "contains key logic about the ordering process,
including assigning invoice numbers, assembling the items with stock
confirmed, and calculating order totals" (paper, Section II).
"""

from __future__ import annotations

import typing

from repro.cow import assoc_in
from repro.marketplace.constants import OrderStatus
from repro.marketplace.logic import lifecycle


def new_customer_orders(customer_id: int) -> dict:
    """State of the per-customer order manager (order grain key)."""
    return {"customer_id": customer_id, "next_order": 1, "orders": {}}


def assemble(state: dict, order_id: str, confirmed_items: list[dict],
             now: float, ext: str | None = None) -> tuple[dict, dict]:
    """Create an order from the stock-confirmed items.

    Assigns the invoice number from the per-customer sequence, computes
    the total, and records the order.  Returns (new state, order dict).
    ``ext`` tags orders ingested from an external platform with their
    ``(platform, shop_id, ext_order_no)`` dedup key.
    """
    if not confirmed_items:
        raise ValueError("an order needs at least one confirmed item")
    if order_id in state["orders"]:
        raise ValueError(f"order {order_id!r} already exists")
    sequence = state["next_order"]
    invoice = f"{state['customer_id']}-{sequence:06d}"
    total = sum(_subtotal(item) for item in confirmed_items)
    order = {
        "order_id": order_id,
        "customer_id": state["customer_id"],
        "invoice": invoice,
        "items": [dict(item) for item in confirmed_items],
        "total_cents": total,
        "status": OrderStatus.INVOICED,
        "history": [OrderStatus.INVOICED],
        "created_at": now,
        "updated_at": now,
        "packages_total": 0,
        "packages_delivered": 0,
    }
    if ext is not None:
        order["ext"] = ext
    state = assoc_in(state, ("next_order",), sequence + 1)
    return assoc_in(state, ("orders", order_id), order), order


def _subtotal(item: typing.Mapping) -> int:
    subtotal = (item["quantity"] * item["unit_price_cents"]
                - item.get("voucher_cents", 0))
    return max(subtotal, 0)


def seller_ids(order: dict) -> list[int]:
    """Distinct sellers participating in an order (package grouping)."""
    return sorted({item["seller_id"] for item in order["items"]})


def set_status(state: dict, order_id: str, status: str,
               now: float) -> dict:
    """Advance an order through the lifecycle state machine.

    Unknown orders raise KeyError; hops not in ``TRANSITIONS`` raise
    :class:`~repro.marketplace.logic.lifecycle.IllegalTransition`.
    """
    order = state["orders"].get(order_id)
    if order is None:
        raise KeyError(f"unknown order {order_id!r}")
    return assoc_in(state, ("orders", order_id),
                    lifecycle.advance(order, status, now))


def return_refusal(state: dict | None, order_id: str) -> dict | None:
    """The rejected reply to a return of ``order_id``, or None when the
    order can be returned: it must be known and completed."""
    order = state["orders"].get(order_id) if state else None
    if order is None:
        return {"status": "rejected", "reason": "unknown_order",
                "order_id": order_id}
    if order["status"] != OrderStatus.COMPLETED:
        return {"status": "rejected", "reason": "not_completed",
                "order_id": order_id, "state": order["status"]}
    return None


def record_shipment(state: dict, order_id: str, package_count: int,
                    now: float) -> dict:
    """Mark the order in transit with ``package_count`` packages."""
    order = lifecycle.advance(state["orders"][order_id],
                              OrderStatus.IN_TRANSIT, now)
    order["packages_total"] = package_count
    return assoc_in(state, ("orders", order_id), order)


def record_delivery(state: dict, order_id: str, now: float) -> tuple[dict,
                                                                     bool]:
    """Record one delivered package; returns (state, order completed?).

    A delivery that would complete an order which can no longer complete
    (it was returned since) changes nothing: a package counted twice by
    two racing delivery batches can complete an order early.
    """
    order = {**state["orders"][order_id]}
    order["packages_delivered"] += 1
    completed = (order["packages_total"] > 0
                 and order["packages_delivered"] >= order["packages_total"])
    if completed and order["status"] != OrderStatus.COMPLETED:
        if not lifecycle.can_advance(order["status"], OrderStatus.COMPLETED):
            return state, False
        order = lifecycle.advance(order, OrderStatus.COMPLETED, now)
    else:
        order["updated_at"] = now
    return assoc_in(state, ("orders", order_id), order), completed

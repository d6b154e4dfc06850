"""Customer service logic: profile data and running statistics."""

from __future__ import annotations


def new_customer(customer_id: int, name: str = "", city: str = "") -> dict:
    return {"customer_id": customer_id, "name": name, "city": city,
            "orders_placed": 0, "payments_succeeded": 0,
            "payments_failed": 0, "deliveries": 0, "spent_cents": 0,
            "refunds": 0}


def record_payment(state: dict, amount_cents: int, approved: bool) -> dict:
    if approved:
        return {**state,
                "payments_succeeded": state["payments_succeeded"] + 1,
                "spent_cents": state["spent_cents"] + amount_cents}
    return {**state, "payments_failed": state["payments_failed"] + 1}


def record_delivery(state: dict) -> dict:
    return {**state, "deliveries": state["deliveries"] + 1}


def record_refund(state: dict, amount_cents: int) -> dict:
    """Reverse a previously recorded successful payment."""
    return {**state, "refunds": state.get("refunds", 0) + 1,
            "spent_cents": state["spent_cents"] - amount_cents}

"""Order lifecycle state machine shared by all four platforms.

Every order-status write in the marketplace goes through
:func:`advance`, which consults the legal-transition table in
:mod:`repro.marketplace.constants` (``TRANSITIONS``).  Centralising the
table means the happy path, the compensation sagas (returns, refunds,
payment-failure aborts) and the audits in :mod:`repro.core.criteria`
all agree on which hops are legal — and the derived sets
(``OrderStatus.IN_PROGRESS``, ``FINAL_STATUSES``) can never drift from
the statuses actually written.

Orders carry their full status trail in ``order["history"]`` so a
post-hoc audit (or the lifecycle property test) can replay every hop.
"""

from __future__ import annotations

import zlib

from repro.marketplace.constants import TRANSITIONS, OrderStatus

#: Fraction of returns that turn out defective (refund, no restock).
DEFECT_RATE = 0.1


class IllegalTransition(Exception):
    """An order-status hop not present in ``TRANSITIONS``."""

    def __init__(self, order_id: str | None, current: str, to: str):
        self.order_id = order_id
        self.current = current
        self.to = to
        super().__init__(
            f"order {order_id!r}: illegal transition {current!r} -> {to!r}")


def can_advance(current: str, to: str) -> bool:
    """True when ``current -> to`` is a legal hop."""
    return to in TRANSITIONS.get(current, ())


def advance(order: dict, to: str, now: float) -> dict:
    """Move an order to ``to``; raises :class:`IllegalTransition`.

    Returns a new order dict with the status, ``updated_at`` and the
    appended ``history`` trail; the input dict is left untouched.
    """
    current = order["status"]
    if not can_advance(current, to):
        raise IllegalTransition(order.get("order_id"), current, to)
    history = list(order.get("history") or (current,))
    history.append(to)
    return {**order, "status": to, "updated_at": now, "history": history}


def disposition(order_id: str, defect_rate: float = DEFECT_RATE) -> str:
    """Deterministic outcome of a return request for one order.

    Hashes the order id (like payment authorisation does) so every
    platform agrees on which returns turn out defective: the
    cross-platform comparison must not be perturbed by randomness.
    """
    digest = zlib.crc32(f"{order_id}/return".encode()) % 10_000
    return (OrderStatus.DEFECT if digest < defect_rate * 10_000
            else OrderStatus.RETURNED)


def return_hops(final: str) -> tuple[str, ...]:
    """The status trail of a return saga ending in ``final``."""
    if final == OrderStatus.DEFECT:
        return (OrderStatus.RETURN_REQUESTED, OrderStatus.DEFECT)
    if final == OrderStatus.RETURNED:
        return (OrderStatus.RETURN_REQUESTED, OrderStatus.RETURN_IN_TRANSIT,
                OrderStatus.RETURNED)
    raise ValueError(f"not a return outcome: {final!r}")

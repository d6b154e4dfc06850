"""Shipment service logic: packaging and delivery progression.

Upon successful payment the shipment service groups order items into
one package per seller.  The *Update Delivery* transaction "picks the
first 10 sellers with undelivered packages in chronological order and
sets their respective oldest order's packages as delivered".
"""

from __future__ import annotations

from repro.cow import assoc_in
from repro.marketplace.constants import PackageStatus


def new_shipments() -> dict:
    """State of a shipment manager partition."""
    return {"shipments": {}, "next_package": 1}


def create_shipment(state: dict, order_id: str, customer_id: int,
                    items: list[dict], now: float) -> tuple[dict, dict]:
    """Create one package per seller for the order's items."""
    if order_id in state["shipments"]:
        raise ValueError(f"shipment for {order_id!r} already exists")
    if not items:
        raise ValueError("cannot ship an order without items")
    packages = {}
    next_package = state["next_package"]
    by_seller: dict[int, list[dict]] = {}
    for item in items:
        by_seller.setdefault(item["seller_id"], []).append(dict(item))
    for seller_id in sorted(by_seller):
        package_id = f"pkg-{next_package:08d}"
        next_package += 1
        packages[package_id] = {
            "package_id": package_id,
            "order_id": order_id,
            "seller_id": seller_id,
            "items": by_seller[seller_id],
            "status": PackageStatus.SHIPPED,
            "shipped_at": now,
            "delivered_at": None,
        }
    shipment = {"order_id": order_id, "customer_id": customer_id,
                "packages": packages, "created_at": now}
    state = assoc_in(state, ("shipments", order_id), shipment)
    return assoc_in(state, ("next_package",), next_package), shipment


def undelivered_seller_times(state: dict) -> list[tuple[int, float]]:
    """(seller, earliest undelivered ship time) pairs for this partition.

    A read-only scan of the whole partition in plain nested loops:
    shipments are frozen plain dicts and cost no Python call each.
    """
    first_seen: dict[int, float] = {}
    delivered = PackageStatus.DELIVERED
    for shipment in state["shipments"].values():
        for package in shipment["packages"].values():
            if package["status"] != delivered:
                seller = package["seller_id"]
                when = package["shipped_at"]
                if seller not in first_seen or when < first_seen[seller]:
                    first_seen[seller] = when
    # Sorting (when, seller) tuples orders as a (time, seller) key
    # would (seller ids are unique) without a key call per seller.
    return [(seller, when) for when, seller
            in sorted(zip(first_seen.values(), first_seen))]


def first_sellers(pairs, limit: int) -> list[int]:
    """Update Delivery's choice: the ``limit`` sellers whose earliest
    undelivered package is oldest (ties by seller id), from the
    (seller, ship time) pairs of any number of partitions."""
    earliest: dict[int, float] = {}
    for seller_id, when in pairs:
        if seller_id not in earliest or when < earliest[seller_id]:
            earliest[seller_id] = when
    return [seller for _, seller
            in sorted(zip(earliest.values(), earliest))[:limit]]


def oldest_undelivered_package(state: dict,
                               seller_id: int) -> dict | None:
    """The seller's oldest package not yet delivered (or None)."""
    best = None
    delivered = PackageStatus.DELIVERED
    for shipment in state["shipments"].values():
        for package in shipment["packages"].values():
            if (package["seller_id"] == seller_id
                    and package["status"] != delivered
                    and (best is None
                         or package["shipped_at"] < best["shipped_at"])):
                best = package
    # The winner may be a frozen committed package: hand back a copy so
    # callers cannot reach engine-owned state through the result.
    return dict(best) if best is not None else None


def mark_delivered(state: dict, order_id: str, package_id: str,
                   now: float) -> tuple[dict, dict]:
    """Set one package delivered; returns (state, updated package)."""
    shipment = state["shipments"].get(order_id)
    if shipment is None:
        raise KeyError(f"no shipment for order {order_id!r}")
    package = shipment["packages"].get(package_id)
    if package is None:
        raise KeyError(f"no package {package_id!r} in order {order_id!r}")
    if package["status"] == PackageStatus.DELIVERED:
        return state, package
    package = {**package, "status": PackageStatus.DELIVERED,
               "delivered_at": now}
    path = ("shipments", order_id, "packages", package_id)
    return assoc_in(state, path, package), package

"""Data management criteria auditors.

The paper prescribes criteria "to allow for proper comparison across
data systems and platforms".  Six are audited here:

C1  All-or-nothing atomicity of business transactions (checkout).
C2  Causal (read-your-writes) replication of product data into carts.
C3  Referential integrity: stock items must refer to existing products.
C4  Snapshot consistency of the two seller-dashboard queries.
C5  Causal event ordering: payment events precede shipment events of
    the same order.
C6  Exactly-once external-order ingestion: every registered
    ``(platform, shop_id, ext_order_no)`` key maps to exactly one
    marketplace order (no duplicates, no orphaned registrations).

C2 and C4 are observed online by the driver; C1, C3, C5 and C6 are
audited post-hoc over the app's state views at ``deadline + drain``, a
fixed drain after the measured window ends, whether or not every
asynchronous effect has settled by then.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.marketplace.constants import OrderStatus

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.core.driver.issuer import Driver

CRITERIA = (
    "C1-atomicity",
    "C2-causal-replication",
    "C3-integrity",
    "C4-snapshot-dashboard",
    "C5-event-ordering",
    "C6-exactly-once-ingest",
)

#: Order statuses that imply the payment succeeded and the money is
#: still with the marketplace (a pending return has not been refunded
#: yet; RETURNED/REJECTED/DEFECT orders have — their totals no longer
#: count towards the customer's spend).
_PAID = (OrderStatus.PAYMENT_PROCESSED, OrderStatus.READY_FOR_SHIPMENT,
         OrderStatus.IN_TRANSIT, OrderStatus.DELIVERED,
         OrderStatus.COMPLETED, OrderStatus.RETURN_REQUESTED,
         OrderStatus.RETURN_IN_TRANSIT)

#: Non-final return states: a return saga that quiesced here stalled
#: half way (refund never landed) — an atomicity violation.
_RETURN_PENDING = (OrderStatus.RETURN_REQUESTED,
                   OrderStatus.RETURN_IN_TRANSIT)


@dataclasses.dataclass
class CriterionResult:
    name: str
    checked: int
    violations: int
    details: list[str] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclasses.dataclass
class CriteriaReport:
    app: str
    results: dict[str, CriterionResult]

    @property
    def all_pass(self) -> bool:
        return all(result.passed for result in self.results.values())

    def row(self) -> dict:
        """One compliance-matrix row: criterion -> pass/fail."""
        row: dict[str, object] = {"app": self.app}
        for name in CRITERIA:
            result = self.results.get(name)
            row[name] = "pass" if result is None or result.passed \
                else f"FAIL({result.violations})"
        return row


def audit_app(app: "MarketplaceApp",
              driver: "Driver | None" = None,
              max_details: int = 5) -> CriteriaReport:
    """Audit one app (after its run's drain) against all criteria."""
    views = app.audit_views()
    results = {
        "C1-atomicity": _audit_atomicity(views, max_details),
        "C3-integrity": _audit_integrity(views, max_details),
        "C5-event-ordering": _audit_event_order(views, max_details),
        "C6-exactly-once-ingest": _audit_exactly_once(views, max_details),
    }
    if driver is not None:
        observations = driver.observations
        results["C2-causal-replication"] = CriterionResult(
            name="C2-causal-replication",
            checked=observations["adds_checked"],
            violations=observations["stale_adds"])
        results["C4-snapshot-dashboard"] = CriterionResult(
            name="C4-snapshot-dashboard",
            checked=observations["dashboards_checked"],
            violations=observations["dashboard_mismatches"])
    return CriteriaReport(app=app.name, results=results)


# ---------------------------------------------------------------------------
# C1: all-or-nothing atomicity
# ---------------------------------------------------------------------------
def _iter_orders(views: dict) -> typing.Iterator[tuple[str, dict]]:
    for state in views.get("orders", {}).values():
        for order_id, order in state.get("orders", {}).items():
            yield order_id, order


def _audit_atomicity(views: dict, max_details: int) -> CriterionResult:
    shipments: dict[str, dict] = {}
    for partition in views.get("shipments", {}).values():
        shipments.update(partition.get("shipments", {}))
    checked = 0
    violations = 0
    details: list[str] = []

    def violation(message: str) -> None:
        nonlocal violations
        violations += 1
        if len(details) < max_details:
            details.append(message)

    customer_paid_totals: dict[int, int] = {}
    for order_id, order in _iter_orders(views):
        checked += 1
        if order["status"] in _RETURN_PENDING:
            violation(f"order {order_id}: return saga stalled in "
                      f"{order['status']}")
        if order["status"] in _PAID:
            customer_paid_totals[order["customer_id"]] = (
                customer_paid_totals.get(order["customer_id"], 0)
                + order["total_cents"])
            shipment = shipments.get(order_id)
            if shipment is None:
                violation(f"paid order {order_id} has no shipment")
                continue
            expected = len({item["seller_id"] for item in order["items"]})
            if len(shipment["packages"]) != expected:
                violation(f"order {order_id}: {len(shipment['packages'])} "
                          f"packages, expected {expected}")

    # After the drain no reservation may dangle: every reservation was
    # either confirmed (decrement) or cancelled.
    for key, stock in views.get("stock", {}).items():
        checked += 1
        if stock.get("qty_reserved", 0) != 0:
            violation(f"stock {key}: dangling reservation of "
                      f"{stock['qty_reserved']}")

    # Customer spend must equal the sum of their paid orders' totals.
    for key, customer in views.get("customers", {}).items():
        checked += 1
        expected = customer_paid_totals.get(customer["customer_id"], 0)
        if customer.get("spent_cents", 0) != expected:
            violation(f"customer {key}: spent {customer['spent_cents']}"
                      f" != paid order total {expected}")
    return CriterionResult("C1-atomicity", checked, violations, details)


# ---------------------------------------------------------------------------
# C3: referential integrity (stock -> product)
# ---------------------------------------------------------------------------
def _audit_integrity(views: dict, max_details: int) -> CriterionResult:
    products = views.get("products", {})
    checked = 0
    violations = 0
    details: list[str] = []
    for key, stock in views.get("stock", {}).items():
        checked += 1
        product = products.get(key)
        product_active = bool(product and product.get("active", False))
        stock_active = stock.get("active", True)
        if stock_active and not product_active:
            violations += 1
            if len(details) < max_details:
                details.append(
                    f"stock {key} active but product inactive/missing")
    return CriterionResult("C3-integrity", checked, violations, details)


# ---------------------------------------------------------------------------
# C5: causal event ordering (payment before shipment per order)
# ---------------------------------------------------------------------------
def _audit_event_order(views: dict, max_details: int) -> CriterionResult:
    #: first observation index of each (subscriber, order, kind)
    first_seen: dict[tuple[str, str, str], int] = {}
    for index, entry in enumerate(views.get("event_log", [])):
        ident = (entry["subscriber"], entry["order_id"], entry["kind"])
        first_seen.setdefault(ident, index)
    pairs: set[tuple[str, str]] = {
        (subscriber, order_id)
        for subscriber, order_id, _ in first_seen}
    checked = 0
    violations = 0
    details: list[str] = []
    for subscriber, order_id in sorted(pairs):
        payment = first_seen.get((subscriber, order_id,
                                  "payment_confirmed"))
        shipment = first_seen.get((subscriber, order_id,
                                   "shipment_notification"))
        if shipment is None:
            continue
        checked += 1
        if payment is None or payment > shipment:
            violations += 1
            if len(details) < max_details:
                details.append(
                    f"{subscriber}: order {order_id} shipment event "
                    f"before payment event")
    return CriterionResult("C5-event-ordering", checked, violations,
                           details)


# ---------------------------------------------------------------------------
# C6: exactly-once external-order ingestion
# ---------------------------------------------------------------------------
def _audit_exactly_once(views: dict, max_details: int) -> CriterionResult:
    """Every registered dedup key <-> exactly one marketplace order.

    A key with two orders means an at-least-once retry double-created
    (and double-decremented stock); a key with none is an orphaned
    registration that silently swallows every future submit; an
    external order without a registration escaped the front door.
    """
    orders_by_ext: dict[str, list[str]] = {}
    for order_id, order in _iter_orders(views):
        ext = order.get("ext")
        if ext is not None:
            orders_by_ext.setdefault(ext, []).append(order_id)
    checked = 0
    violations = 0
    details: list[str] = []

    def violation(message: str) -> None:
        nonlocal violations
        violations += 1
        if len(details) < max_details:
            details.append(message)

    registered: set[str] = set()
    for shard in views.get("ingestion", {}).values():
        for key in shard.get("entries", {}):
            registered.add(key)
            checked += 1
            matching = orders_by_ext.get(key, [])
            if len(matching) > 1:
                violation(f"key {key}: duplicate orders "
                          f"{sorted(matching)}")
            elif not matching:
                violation(f"key {key}: registered but no order exists")
    for key in sorted(set(orders_by_ext) - registered):
        checked += 1
        violation(f"key {key}: external order(s) without registration")
    return CriterionResult("C6-exactly-once-ingest", checked, violations,
                           details)

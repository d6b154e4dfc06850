"""The Online Marketplace application domain.

Platform-independent definitions of the benchmark's eight microservices:
entities and the business logic of Cart, Product, Stock, Order,
Payment, Shipment, Customer and Seller (events travel as plain dict
payloads on the :class:`Topics` the apps publish to).  The logic lives
in pure state-transition functions over plain-dict state, so the four
platform implementations in :mod:`repro.apps` (Orleans eventual /
transactional / Statefun / customized) share one implementation of the
business rules and differ only in data management semantics.
"""

from repro.marketplace import logic
from repro.marketplace.constants import (
    OrderStatus,
    PackageStatus,
    PaymentMethod,
    PaymentStatus,
    Topics,
)
from repro.marketplace.entities import (
    Customer,
    Product,
    Seller,
    StockItem,
    product_key,
)

__all__ = [
    "Customer",
    "OrderStatus",
    "PackageStatus",
    "PaymentMethod",
    "PaymentStatus",
    "Product",
    "Seller",
    "StockItem",
    "Topics",
    "logic",
    "product_key",
]

"""The generated world: every record a pure function of its identity.

A :class:`Dataset` derives each Seller/Customer/Product/StockItem from
``(dataset seed, entity kind, entity id)`` the moment it is first
asked for, and memoises it.  ANY touch order therefore yields
identical records, the resident set only ever holds what a run used
(so a 10^6-product world costs nothing up front), and a small world
can simply be enumerated.

Record fields are read straight out of a :func:`hashlib.blake2b`
digest of the identity — never Python's ``hash()``, whose per-process
randomisation (``PYTHONHASHSEED``) would break the matrix's
cross-process bit-identity guarantee, and never a ``random.Random``
per entity, which costs four times as much to seed as the digest does
to compute.

Id layout: product ids are globally sequential; seller ``s`` (1-based)
owns the block ``(s-1)*(P+R)+1 .. s*(P+R)`` whose first
``P = products_per_seller`` ids are initially live and whose trailing
``R = reserve_per_seller`` are the delete-compensation reserves
(:class:`~repro.core.workload.distributions.ProductKeyRegistry` does
its rank arithmetic over the same layout).
"""

from __future__ import annotations

import hashlib

from repro.core.workload.config import WorkloadConfig
from repro.marketplace.entities import (Customer, Product, Seller, StockItem,
                                        product_key)

_CATEGORIES = (
    "electronics", "books", "home", "toys", "sports", "fashion",
    "garden", "grocery", "beauty", "automotive",
)

_CITIES = (
    "copenhagen", "aarhus", "odense", "aalborg", "esbjerg", "randers",
)


def entity_draw(seed: int, kind: str, ident: str | int) -> int:
    """A stable 64-bit draw for one entity (cross-process
    deterministic); a record takes its generated fields from it."""
    return int.from_bytes(hashlib.blake2b(
        f"{seed}:{kind}:{ident}".encode(), digest_size=8).digest(), "big")


class Dataset:
    """The world a driver runs against, generated on demand."""

    def __init__(self, config: WorkloadConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.seller_ids = range(1, config.sellers + 1)
        self.customer_ids = range(1, config.customers + 1)
        self._block = config.products_per_seller + config.reserve_per_seller
        self._sellers: dict[int, Seller] = {}
        self._customers: dict[int, Customer] = {}
        self._products: dict[str, Product] = {}
        self._stock: dict[str, StockItem] = {}

    # ------------------------------------------------------------------
    # per-entity records (memoised)
    # ------------------------------------------------------------------
    def seller(self, seller_id: int) -> Seller:
        record = self._sellers.get(seller_id)
        if record is None:
            if not 1 <= seller_id <= self.config.sellers:
                raise KeyError(f"seller {seller_id} out of range")
            draw = entity_draw(self.seed, "seller", seller_id)
            record = Seller(seller_id=seller_id, name=f"seller-{seller_id}",
                            city=_CITIES[draw % len(_CITIES)])
            self._sellers[seller_id] = record
        return record

    def customer(self, customer_id: int) -> Customer:
        record = self._customers.get(customer_id)
        if record is None:
            if not 1 <= customer_id <= self.config.customers:
                raise KeyError(f"customer {customer_id} out of range")
            draw = entity_draw(self.seed, "customer", customer_id)
            record = Customer(customer_id=customer_id,
                              name=f"customer-{customer_id}",
                              city=_CITIES[draw % len(_CITIES)])
            self._customers[customer_id] = record
        return record

    def product(self, seller_id: int, product_id: int) -> Product:
        key = product_key(seller_id, product_id)
        record = self._products.get(key)
        if record is None:
            if not self._owns(seller_id, product_id):
                raise KeyError(f"product {key} out of range")
            config = self.config
            # Price from the low half of the draw, category from the
            # high half, so the two are independent.
            draw = entity_draw(self.seed, "product", key)
            span = config.max_price_cents - config.min_price_cents + 1
            record = Product(
                product_id=product_id, seller_id=seller_id,
                name=f"product-{product_id}",
                category=_CATEGORIES[(draw >> 32) % len(_CATEGORIES)],
                price_cents=config.min_price_cents
                + (draw & 0xFFFFFFFF) % span)
            self._products[key] = record
        return record

    def stock_item(self, seller_id: int, product_id: int) -> StockItem:
        key = product_key(seller_id, product_id)
        record = self._stock.get(key)
        if record is None:
            if not self._owns(seller_id, product_id):
                raise KeyError(f"stock {key} out of range")
            record = StockItem(product_id=product_id, seller_id=seller_id,
                               qty_available=self.config.initial_stock)
            self._stock[key] = record
        return record

    def _owns(self, seller_id: int, product_id: int) -> bool:
        if not 1 <= seller_id <= self.config.sellers:
            return False
        offset = product_id - 1 - (seller_id - 1) * self._block
        return 0 <= offset < self._block

    # ------------------------------------------------------------------
    # the whole world (O(world): small worlds only)
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Records in the configured world, touched or not."""
        config = self.config
        return config.sellers * (1 + self._block) + config.customers

    @property
    def sellers(self) -> list[Seller]:
        return [self.seller(i) for i in self.seller_ids]

    @property
    def customers(self) -> list[Customer]:
        return [self.customer(i) for i in self.customer_ids]

    def _block_slice(self, start: int, stop: int) -> list[Product]:
        return [self.product(seller_id, (seller_id - 1) * self._block
                             + offset + 1)
                for seller_id in self.seller_ids
                for offset in range(start, stop)]

    @property
    def products(self) -> list[Product]:
        """The initially live products."""
        return self._block_slice(0, self.config.products_per_seller)

    @property
    def reserve_products(self) -> list[Product]:
        """The delete-compensation replacements."""
        return self._block_slice(self.config.products_per_seller,
                                 self._block)

    @property
    def stock(self) -> dict[str, StockItem]:
        """Product key -> stock item, for every product."""
        return {product.key: self.stock_item(product.seller_id,
                                             product.product_id)
                for product in self.products + self.reserve_products}

    def summary(self) -> dict[str, int]:
        config = self.config
        return {
            "sellers": config.sellers,
            "customers": config.customers,
            "products": config.total_products,
            "reserve_products": config.sellers * config.reserve_per_seller,
            "stock_items": config.sellers * self._block,
            "touched_sellers": len(self._sellers),
            "touched_customers": len(self._customers),
            "touched_products": len(self._products),
        }

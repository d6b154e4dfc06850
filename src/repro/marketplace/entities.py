"""Domain entities of Online Marketplace.

Entities are dataclasses; grain and function state holds the dict form
of products and stock items (``as_dict``: plain data survives paging and
checkpoints), while the driver and the data generator work with the
typed form.  All money amounts are integer cents.
"""

from __future__ import annotations

import dataclasses


def product_key(seller_id: int, product_id: int) -> str:
    """The canonical cross-service identity of a product."""
    return f"{seller_id}/{product_id}"


@dataclasses.dataclass
class Seller:
    seller_id: int
    name: str
    city: str = ""


@dataclasses.dataclass
class Customer:
    customer_id: int
    name: str
    city: str = ""


@dataclasses.dataclass
class Product:
    product_id: int
    seller_id: int
    name: str
    category: str
    price_cents: int
    version: int = 1
    active: bool = True

    @property
    def key(self) -> str:
        return product_key(self.seller_id, self.product_id)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class StockItem:
    product_id: int
    seller_id: int
    qty_available: int
    qty_reserved: int = 0
    version: int = 1
    active: bool = True

    @property
    def key(self) -> str:
        return product_key(self.seller_id, self.product_id)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


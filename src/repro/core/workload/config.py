"""Workload configuration: scale, skew and transaction mix."""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass
class TransactionMix:
    """Relative weights of the five business transactions.

    Defaults follow the benchmark's checkout-dominated profile: most
    traffic is customers checking out, with a steady trickle of seller
    operations and dashboards.
    """

    checkout: float = 65.0
    price_update: float = 12.0
    product_delete: float = 2.0
    update_delivery: float = 6.0
    dashboard: float = 15.0
    #: External-order ingestion and return requests default to zero so
    #: the classic five-transaction profile is unchanged.  New entries
    #: stay at the END of ``normalised()`` — its iteration order feeds
    #: the single-draw operation sampler.
    submit_external: float = 0.0
    request_return: float = 0.0

    def normalised(self) -> dict[str, float]:
        weights = {
            "checkout": self.checkout,
            "price_update": self.price_update,
            "product_delete": self.product_delete,
            "update_delivery": self.update_delivery,
            "dashboard": self.dashboard,
            "submit_external": self.submit_external,
            "request_return": self.request_return,
        }
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("transaction mix weights must sum to > 0")
        return {name: weight / total for name, weight in weights.items()}


@dataclasses.dataclass
class WorkloadConfig:
    """Scale and distribution parameters of the generated marketplace."""

    sellers: int = 10
    customers: int = 100
    products_per_seller: int = 10
    #: Initial stock per product.
    initial_stock: int = 10_000
    #: Extra products generated per seller as replacements for deletes,
    #: keeping the key popularity distribution intact (paper, Section II).
    reserve_fraction: float = 0.25
    #: Zipf exponent of product popularity (0 = uniform).
    zipf_s: float = 0.8
    #: Cart size range per checkout.
    min_cart_items: int = 1
    max_cart_items: int = 5
    #: Quantity range per cart item.
    min_quantity: int = 1
    max_quantity: int = 3
    #: Price range (cents) of generated products.
    min_price_cents: int = 100
    max_price_cents: int = 100_000
    #: Probability a cart item carries a voucher.
    voucher_probability: float = 0.1
    #: External-platform ingestion shape: how many platforms/shops the
    #: submit_external mix draws dedup shards from.
    external_platforms: int = 2
    external_shops: int = 3
    #: Probability a submit_external fires the same key twice
    #: concurrently (the duplicate-ingest probe).
    duplicate_submit_probability: float = 0.0
    mix: TransactionMix = dataclasses.field(default_factory=TransactionMix)

    def __post_init__(self) -> None:
        # Checked once, here: a bad range would otherwise construct and
        # fail deep inside the first product generated or checkout drawn.
        # Every rule is a comparison that NaN fails.
        rules = [(name, ">= 1", getattr(self, name) >= 1) for name in (
            "sellers", "customers", "products_per_seller", "min_cart_items",
            "min_quantity", "min_price_cents", "external_platforms",
            "external_shops")]
        rules += [(f"max_{name}", f">= min_{name}",
                   getattr(self, f"max_{name}")
                   >= getattr(self, f"min_{name}"))
                  for name in ("cart_items", "quantity", "price_cents")]
        rules += [(name, ">= 0", getattr(self, name) >= 0)
                  for name in ("initial_stock", "zipf_s")]
        rules += [("reserve_fraction", "finite and >= 0",
                   0 <= self.reserve_fraction < math.inf)]
        rules += [(name, "in [0, 1]", 0 <= getattr(self, name) <= 1)
                  for name in ("voucher_probability",
                               "duplicate_submit_probability")]
        for name, rule, holds in rules:
            if not holds:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def total_products(self) -> int:
        return self.sellers * self.products_per_seller

    @property
    def reserve_per_seller(self) -> int:
        """Replacement products generated per seller (at least one)."""
        return max(1, int(self.products_per_seller * self.reserve_fraction))

"""Workload configuration: scale, skew and transaction mix.

A value no caller varies is a module constant here, beside the two
modules that read it (``dataset.py`` generates prices and stock,
``issuer.py`` draws carts, quantities, vouchers and price updates).
"""

from __future__ import annotations

import dataclasses
import math

#: Initial stock per product.
INITIAL_STOCK = 10_000
#: Price range (cents, inclusive) of generated products and updates.
PRICE_CENTS = (100, 100_000)
#: Cart size range (inclusive) per checkout.
CART_ITEMS = (1, 5)
#: Quantity range (inclusive) per cart item.
QUANTITY = (1, 3)
#: Probability a cart item carries a voucher.
VOUCHER_PROBABILITY = 0.1
#: External platforms and shops per platform the submit_external mix
#: draws dedup shards from.
EXTERNAL_PLATFORMS = 2
EXTERNAL_SHOPS = 3


@dataclasses.dataclass(frozen=True)
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
    #: stay at the END of the fields — ``normalised()`` follows their
    #: order, which feeds the single-draw operation sampler.
    submit_external: float = 0.0
    request_return: float = 0.0

    def __post_init__(self) -> None:
        # A negative, NaN or infinite weight would normalise into a
        # negative or NaN share that the operation sampler never draws.
        for name, weight in vars(self).items():
            if not 0 <= weight < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {weight}")
        if sum(vars(self).values()) <= 0:
            raise ValueError("transaction mix weights must sum to > 0")

    def normalised(self) -> dict[str, float]:
        # The instance dict holds the weights in field order.
        total = sum(vars(self).values())
        return {name: weight / total for name, weight in vars(self).items()}


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Scale and distribution parameters of the generated marketplace."""

    sellers: int = 10
    customers: int = 100
    products_per_seller: int = 10
    #: Extra products generated per seller as replacements for deletes,
    #: keeping the key popularity distribution intact (paper, Section II).
    reserve_fraction: float = 0.25
    #: Zipf exponent of product popularity (0 = uniform).
    zipf_s: float = 0.8
    #: Probability a submit_external fires the same key twice
    #: concurrently (the duplicate-ingest probe).
    duplicate_submit_probability: float = 0.0
    mix: TransactionMix = TransactionMix()

    def __post_init__(self) -> None:
        # Checked once, here: a bad value would otherwise construct and
        # fail deep inside the first product generated or checkout drawn.
        # Every rule is a comparison that NaN fails.
        rules = [(name, ">= 1", getattr(self, name) >= 1) for name in (
            "sellers", "customers", "products_per_seller")]
        rules += [("zipf_s", ">= 0", self.zipf_s >= 0),
                  ("reserve_fraction", "finite and >= 0",
                   0 <= self.reserve_fraction < math.inf),
                  ("duplicate_submit_probability", "in [0, 1]",
                   0 <= self.duplicate_submit_probability <= 1)]
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

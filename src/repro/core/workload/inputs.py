"""Safe concurrent transaction-input selection.

The second driver challenge the paper names: "providing safe concurrent
accesses to data that form transaction inputs".  Two workers must not
simultaneously drive the same customer's cart through checkout, nor
interleave delete/price-update on the same product.  The
:class:`InputCoordinator` hands out exclusive leases on customers and
products; busy keys are skipped, never blocked on, so the workload
keeps its open/closed-loop timing behaviour.
"""

from __future__ import annotations

import random
import typing

from repro.core.workload.distributions import ProductKeyRegistry, ZipfSampler


class InputCoordinator:
    """Leases over customers and products for concurrent workers."""

    def __init__(self, customer_ids: typing.Sequence[int],
                 registry: ProductKeyRegistry,
                 sampler: ZipfSampler,
                 rng: random.Random) -> None:
        if not customer_ids:
            raise ValueError("need at least one customer")
        self._customer_ids = customer_ids
        self._registry = registry
        self._sampler = sampler
        self._rng = rng
        self._busy_customers: set[int] = set()
        self._busy_products: set[tuple[int, int]] = set()
        self.skipped_customers = 0
        self.skipped_products = 0

    # ------------------------------------------------------------------
    # customers
    # ------------------------------------------------------------------
    def lease_customer(self, attempts: int = 8) -> int | None:
        """Lease a random free customer (None if all sampled were busy)."""
        for _ in range(attempts):
            customer_id = self._rng.choice(self._customer_ids)
            if customer_id not in self._busy_customers:
                self._busy_customers.add(customer_id)
                return customer_id
            self.skipped_customers += 1
        return None

    def release_customer(self, customer_id: int) -> None:
        self._busy_customers.discard(customer_id)

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def sample_product(self) -> tuple[int, int]:
        """Zipfian product sample (no lease; used for cart composition)."""
        rank = self._sampler.sample()
        return self._registry.product_at(rank)

    def lease_product(self, attempts: int = 8) -> tuple[int,
                                                        tuple[int, int]] | None:
        """Lease the product at a Zipfian rank for exclusive mutation.

        Returns (rank, key) or None when all sampled ranks were busy.
        """
        for _ in range(attempts):
            rank = self._sampler.sample()
            key = self._registry.product_at(rank)
            if key not in self._busy_products:
                self._busy_products.add(key)
                return rank, key
            self.skipped_products += 1
        return None

    def release_product(self, key: tuple[int, int]) -> None:
        self._busy_products.discard(key)

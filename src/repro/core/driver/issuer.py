"""Shared transaction-issuing logic for both driver styles.

The five business transactions — cart build-up + checkout, price
update, product delete, update delivery, seller dashboard — used to
live as ``_do_*`` methods on the closed-loop driver.  They are factored
out here so the closed-loop :class:`~repro.core.driver.driver.
BenchmarkDriver` and the open-loop :class:`~repro.core.driver.
open_loop.OpenLoopDriver` issue transactions through one code path:
same input leasing, same delete compensation, same online consistency
observations (C2/C4), same skip accounting.
"""

from __future__ import annotations

import collections
import itertools
import typing

from repro.core.workload.config import WorkloadConfig
from repro.core.workload.dataset import Dataset
from repro.core.workload.distributions import (
    HotspotSampler,
    ProductKeyRegistry,
    ZipfSampler,
)
from repro.core.workload.inputs import InputCoordinator
from repro.marketplace.constants import PaymentMethod

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.core.driver.metrics import LatencyRecorder
    from repro.runtime import Environment

#: The operations a driver may ask the issuer to perform.  New
#: operations are appended (mix iteration order feeds the one-draw
#: operation sampler, so insertion order is part of RNG determinism).
OPERATIONS = ("checkout", "price_update", "product_delete",
              "update_delivery", "dashboard", "submit_external",
              "request_return")

#: Transaction-mix name -> the operation name the app reports results
#: under (and therefore the key the recorder's histograms use).  The
#: open-loop driver records queueing delay with these keys so queue
#: wait and service latency land on the same rows.
RESULT_OPERATION = {
    "checkout": "checkout",
    "price_update": "update_price",
    "product_delete": "delete_product",
    "update_delivery": "update_delivery",
    "dashboard": "dashboard",
    "submit_external": "submit_external",
    "request_return": "request_return",
}


class IssuerStateView:
    """Mixin exposing the issuer state the criteria auditors read on a
    driver."""

    issuer: "TransactionIssuer"

    @property
    def sampler(self):
        return self.issuer.sampler

    @property
    def observations(self) -> dict[str, int]:
        return self.issuer.observations


class TransactionIssuer:
    """Issues business transactions against one app.

    Owns the workload state shared by all driver styles: the product
    key registry (stable Zipf ranks with delete compensation), the
    input coordinator (exclusive customer/product leases), the
    transaction-mix sampler and the consistency observations the
    criteria auditors consume.
    """

    def __init__(self, env: "Environment", app: "MarketplaceApp",
                 workload: WorkloadConfig, dataset: Dataset,
                 recorder: "LatencyRecorder") -> None:
        self.env = env
        self.app = app
        self.workload = workload
        self.dataset = dataset
        self.recorder = recorder
        world = dataset.config
        self.registry = ProductKeyRegistry(
            world.sellers, world.products_per_seller,
            world.reserve_per_seller)
        self.sampler = HotspotSampler(
            ZipfSampler(len(self.registry), workload.zipf_s,
                        env.rng("driver-keys")),
            env.rng("driver-hotspot"))
        self.coordinator = InputCoordinator(
            dataset.customer_ids, self.registry, self.sampler,
            env.rng("driver-inputs"))
        self._mix = workload.mix.normalised()
        self._rng = env.rng("driver-mix")
        self._order_ids = itertools.count(1)
        self._ext_order_ids = itertools.count(1)
        #: Checked-out orders eligible for a return request (oldest
        #: first — they have had the longest time to complete).
        self.return_pool: collections.deque[tuple[int, str]] = \
            collections.deque()
        #: Samples taken at or before this simulated time are recorded.
        self.record_until = float("inf")
        #: Optional control-plane signal feed (a ``SignalWindow``); the
        #: open-loop driver installs one so the autoscaler can see
        #: completion outcomes ungated by the measurement window.
        self.tap = None
        self.skipped = {"empty_cart": 0, "no_lease": 0, "no_reserve": 0,
                        "no_order": 0}
        # Online consistency observations consumed by the criteria
        # auditors: acknowledged product versions vs. versions actually
        # read into carts, and dashboard query-pair consistency.
        self.acked_versions: dict[str, int] = {}
        self.acked_deletes: set[str] = set()
        self.observations = {"adds_checked": 0, "stale_adds": 0,
                             "dashboards_checked": 0,
                             "dashboard_mismatches": 0,
                             "ext_submits": 0, "ext_duplicate_submits": 0,
                             "ext_idempotent_hits": 0,
                             "returns_requested": 0,
                             "returns_completed": 0}

    # ------------------------------------------------------------------
    # operation selection & dispatch
    # ------------------------------------------------------------------
    def choose_operation(self) -> str:
        point = self._rng.random()
        cumulative = 0.0
        for operation, weight in self._mix.items():
            cumulative += weight
            if point < cumulative:
                return operation
        return "checkout"

    def issue(self, operation: str, record: bool = True):
        """Run one business transaction (a process helper).

        ``record=False`` suppresses metric samples for this one
        transaction (the open-loop driver gates by *arrival* time, a
        decision only the caller can make).  Returns True when the
        transaction's headline app call — the one whose result is
        recorded under ``RESULT_OPERATION[operation]`` — was made,
        False when it was skipped (input lease miss, reserve pool dry,
        empty cart): skipped transactions must not contribute
        queue-delay/response samples, or those histograms would
        disagree with the operation's outcome counts.
        """
        handler = getattr(self, f"do_{operation}")
        return (yield from handler(record))

    def _record(self, result, started: float, record: bool) -> None:
        if self.tap is not None:
            # Control signals are ungated: the controller must see
            # load during warm-up and drain, which the metrics window
            # deliberately excludes.  Pure bookkeeping, no RNG.
            self.tap.observe_outcome(self.env.now, result.status)
        if record and self.env.now <= self.record_until:
            self.recorder.record(result.operation, result.status,
                                 self.env.now - started,
                                 at=self.env.now)

    # ------------------------------------------------------------------
    # the five business transactions
    # ------------------------------------------------------------------
    def do_checkout(self, record: bool = True):
        """A series of cart operations followed by the checkout call."""
        customer_id = self.coordinator.lease_customer()
        if customer_id is None:
            self.skipped["no_lease"] += 1
            yield self.env.timeout(0.001)
            return False
        self.app.touch_customer(customer_id)
        try:
            n_items = self._rng.randint(self.workload.min_cart_items,
                                        self.workload.max_cart_items)
            added = 0
            for _ in range(n_items):
                seller_id, product_id = self.coordinator.sample_product()
                self.app.touch_product(seller_id, product_id)
                quantity = self._rng.randint(self.workload.min_quantity,
                                             self.workload.max_quantity)
                voucher = 0
                if self._rng.random() < self.workload.voucher_probability:
                    voucher = self._rng.randint(
                        1, self.workload.min_price_cents)
                key = f"{seller_id}/{product_id}"
                # Snapshot the acknowledged state *before* the add: only
                # updates acked before the read started can be required
                # of it (causal/read-your-writes semantics).
                acked_version = self.acked_versions.get(key)
                acked_delete = key in self.acked_deletes
                started = self.env.now
                result = yield from self.app.add_item(
                    customer_id, seller_id, product_id, quantity, voucher)
                self._record(result, started, record)
                if result.ok:
                    added += 1
                    self._observe_add(result, acked_version, acked_delete)
            if added == 0:
                # The add attempts were recorded under add_item, but
                # no checkout call happened — the checkout row must
                # get no queue/response sample for this transaction.
                self.skipped["empty_cart"] += 1
                return False
            order_id = f"o{customer_id}-{next(self._order_ids)}"
            method = self._rng.choice(PaymentMethod.ALL)
            started = self.env.now
            result = yield from self.app.checkout(customer_id, order_id,
                                                  method)
            self._record(result, started, record)
            if result.ok:
                self.return_pool.append((customer_id, order_id))
            return True
        finally:
            self.coordinator.release_customer(customer_id)

    def do_price_update(self, record: bool = True):
        lease = self.coordinator.lease_product()
        if lease is None:
            self.skipped["no_lease"] += 1
            yield self.env.timeout(0.001)
            return False
        _, (seller_id, product_id) = lease
        self.app.touch_product(seller_id, product_id)
        try:
            price = self._rng.randint(self.workload.min_price_cents,
                                      self.workload.max_price_cents)
            started = self.env.now
            result = yield from self.app.update_price(seller_id,
                                                      product_id, price)
            self._record(result, started, record)
            if result.ok:
                key = f"{seller_id}/{product_id}"
                self.acked_versions[key] = result.payload["version"]
            return True
        finally:
            self.coordinator.release_product((seller_id, product_id))

    def do_product_delete(self, record: bool = True):
        lease = self.coordinator.lease_product()
        if lease is None:
            self.skipped["no_lease"] += 1
            yield self.env.timeout(0.001)
            return False
        rank, (seller_id, product_id) = lease
        self.app.touch_product(seller_id, product_id)
        try:
            # Rebind the rank to a replacement *before* the app call:
            # claiming the reserve first closes the race where two
            # workers both pass a reserve check, both delete, and the
            # loser leaves a dead product in the sampling population.
            compensation = self.registry.delete_at(rank)
            if compensation is None:
                self.skipped["no_reserve"] += 1
                return False
            started = self.env.now
            result = yield from self.app.delete_product(seller_id,
                                                        product_id)
            self._record(result, started, record)
            if result.ok:
                key = f"{seller_id}/{product_id}"
                self.acked_versions[key] = result.payload["version"]
                self.acked_deletes.add(key)
            return True
        finally:
            self.coordinator.release_product((seller_id, product_id))

    def do_update_delivery(self, record: bool = True):
        started = self.env.now
        result = yield from self.app.update_delivery()
        self._record(result, started, record)
        return True

    def do_dashboard(self, record: bool = True):
        seller_id = self._rng.choice(self.dataset.seller_ids)
        self.app.touch_seller(seller_id)
        started = self.env.now
        result = yield from self.app.dashboard(seller_id)
        self._record(result, started, record)
        if result.ok:
            self.observations["dashboards_checked"] += 1
            if (result.payload["amount_cents"]
                    != result.payload["entries_total_cents"]):
                self.observations["dashboard_mismatches"] += 1
        return True

    def do_submit_external(self, record: bool = True):
        """Ingest one external-platform order; sometimes submit the
        same ``(platform, shop, ext_order_no)`` twice concurrently to
        probe the idempotent front door."""
        platform = f"p{self._rng.randint(1, self.workload.external_platforms)}"
        shop_id = self._rng.randint(1, self.workload.external_shops)
        ext_order_no = f"E{next(self._ext_order_ids):06d}"
        customer_id = self._rng.choice(self.dataset.customer_ids)
        self.app.touch_customer(customer_id)
        n_items = self._rng.randint(1, 2)
        items = []
        seen: set[tuple[int, int]] = set()
        for _ in range(n_items):
            seller_id, product_id = self.coordinator.sample_product()
            self.app.touch_product(seller_id, product_id)
            if (seller_id, product_id) in seen:
                continue
            seen.add((seller_id, product_id))
            items.append({
                "seller_id": seller_id, "product_id": product_id,
                "quantity": self._rng.randint(self.workload.min_quantity,
                                              self.workload.max_quantity),
                "unit_price_cents": self._rng.randint(
                    self.workload.min_price_cents,
                    self.workload.max_price_cents)})
        duplicate = (self._rng.random()
                     < self.workload.duplicate_submit_probability)
        started = self.env.now
        self.observations["ext_submits"] += 1
        if duplicate:
            # Two racing submits of the same key — exactly one may
            # create the order; the other must resolve to it.
            self.observations["ext_duplicate_submits"] += 1
            first = self.env.process(self.app.submit_external(
                platform, shop_id, ext_order_no, customer_id, items))
            second = self.env.process(self.app.submit_external(
                platform, shop_id, ext_order_no, customer_id, items))
            yield self.env.all_of([first, second])
            results = [first.value, second.value]
            result = results[0]
        else:
            result = yield from self.app.submit_external(
                platform, shop_id, ext_order_no, customer_id, items)
            results = [result]
        self._record(result, started, record)
        for outcome in results:
            if outcome.ok and outcome.payload.get("idempotent"):
                self.observations["ext_idempotent_hits"] += 1
        return True

    def do_request_return(self, record: bool = True):
        """Request a return for the oldest checked-out order."""
        if not self.return_pool:
            self.skipped["no_order"] += 1
            yield self.env.timeout(0.001)
            return False
        customer_id, order_id = self.return_pool.popleft()
        started = self.env.now
        self.observations["returns_requested"] += 1
        result = yield from self.app.request_return(customer_id, order_id)
        self._record(result, started, record)
        if result.ok:
            self.observations["returns_completed"] += 1
        elif result.status == "rejected" \
                and result.payload.get("reason") == "not_completed":
            # Not delivered yet: recycle it for a later attempt.
            self.return_pool.append((customer_id, order_id))
        return True

    def _observe_add(self, result, acked_version: int | None,
                     acked_delete: bool) -> None:
        """Check the replicated price against acknowledged updates.

        A successful add whose price version is older than the last
        update *acknowledged before the add started* — or any
        successful add of a product whose deletion was acknowledged
        before the add started — violates the causal (read-your-writes)
        replication criterion.
        """
        self.observations["adds_checked"] += 1
        stale = (acked_version is not None
                 and result.payload["price_version"] < acked_version)
        if stale or acked_delete:
            self.observations["stale_adds"] += 1

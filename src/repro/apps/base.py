"""The app interface the benchmark driver runs against.

Every implementation exposes the same operations — the five business
transactions of Online Marketplace plus cart item management and data
ingestion.  Operations are *process helpers* (``yield from app.op(...)``)
so that every implementation charges its own simulated costs.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.signals import PlatformStats

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workload.dataset import Dataset
    from repro.runtime import Environment


#: Largest world (in records) :meth:`MarketplaceApp.ingest` installs
#: up front; anything bigger is installed record by record on first
#: touch, so set-up stays O(1) in the configured world.
PRELOAD_MAX_RECORDS = 4096


@dataclasses.dataclass
class AppConfig:
    """Deployment knobs shared by all implementations."""

    silos: int = 4
    cores_per_silo: int = 4
    #: Message-loss probability (exercised by the anomaly experiments).
    drop_probability: float = 0.0
    #: Payment approval rate (deterministic per order id).
    approval_rate: float = 1.0
    #: Replication lag of the KV replica tier (customized app only).
    replication_lag: float = 0.0005
    #: Checkpoint interval (statefun app only; 0 disables).
    checkpoint_interval: float = 0.5
    #: Working-set budget: max resident grain activations per silo
    #: (statefun: max resident addresses per worker).  None = unbounded,
    #: the historical behaviour.  Under a budget, least-recently-used
    #: quiet grains page their state out and deactivate; re-activation
    #: reads it back (see ``actors/cluster.py``).
    activation_limit: int | None = None


@dataclasses.dataclass
class OperationResult:
    """Uniform result record handed back to the driver."""

    status: str  # "ok" | "rejected" | "failed" | "aborted"
    operation: str
    payload: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class MarketplaceApp:
    """Abstract base for the four implementations."""

    name = "abstract"

    #: What membership actions act on and ``platform_stats()`` reads:
    #: the object with the ``add_silo``/``drain_silo`` verbs and
    #: ``control_stats()``.  None = the app cannot scale, so every
    #: control action on it records as skipped.
    scaling_host: object | None = None

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        self.env = env
        self.config = config or AppConfig()
        self.dataset: "Dataset | None" = None
        self._touched_sellers: set[int] = set()
        self._touched_customers: set[int] = set()
        self._touched_products: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def ingest(self, dataset: "Dataset") -> None:
        """Adopt the dataset (zero simulated latency).

        A world of at most :data:`PRELOAD_MAX_RECORDS` records is
        installed up front, which is faithful to the paper and what
        direct ``app.checkout(...)`` callers need.  A larger one is
        only adopted: its records arrive through :meth:`touch_product`
        & co. on first use, the only scheme that fits 10^6 keys.  Both
        modes install through the same per-record hooks and record
        what they installed in ``_touched_*``, so a touch of a
        preloaded record is a no-op and both install identical state.
        Ingestion models out-of-band data loading, so implementations
        install state directly rather than spending simulated time.
        """
        self.dataset = dataset
        if dataset.size <= PRELOAD_MAX_RECORDS:
            # Every product, then every stock item, sellers, customers.
            # The order is observable: a draining or rebalancing silo
            # hands its activations over one by one in activation order.
            products = dataset.products + dataset.reserve_products
            for product in products:
                self._ingest_product(product)
            for product in products:
                self._ingest_stock(dataset.stock_item(
                    product.seller_id, product.product_id))
            self._touched_products.update(
                (product.seller_id, product.product_id)
                for product in products)
            for seller_id in dataset.seller_ids:
                self.touch_seller(seller_id)
            for customer_id in dataset.customer_ids:
                self.touch_customer(customer_id)
        self._post_ingest()

    # Per-record installation hooks; implementations override these.
    def _ingest_product(self, product) -> None:
        raise NotImplementedError

    def _ingest_stock(self, stock_item) -> None:
        raise NotImplementedError

    def _ingest_seller(self, seller) -> None:
        raise NotImplementedError

    def _ingest_customer(self, customer) -> None:
        raise NotImplementedError

    def _post_ingest(self) -> None:
        """Hook run once after :meth:`ingest`."""

    # ------------------------------------------------------------------
    # on-demand ingestion: idempotent, and a record counts as installed
    # only once its hooks have returned
    # ------------------------------------------------------------------
    def touch_seller(self, seller_id: int) -> None:
        """Ensure the seller's record is installed."""
        if seller_id in self._touched_sellers:
            return
        self._ingest_seller(self.dataset.seller(seller_id))
        self._touched_sellers.add(seller_id)

    def touch_customer(self, customer_id: int) -> None:
        """Ensure the customer's record is installed."""
        if customer_id in self._touched_customers:
            return
        self._ingest_customer(self.dataset.customer(customer_id))
        self._touched_customers.add(customer_id)

    def touch_product(self, seller_id: int, product_id: int) -> None:
        """Ensure the product, its stock and its seller are installed."""
        key = (seller_id, product_id)
        if key in self._touched_products:
            return
        dataset = self.dataset
        product = dataset.product(seller_id, product_id)
        self.touch_seller(seller_id)
        self._ingest_product(product)
        self._ingest_stock(dataset.stock_item(seller_id, product_id))
        self._touched_products.add(key)

    # ------------------------------------------------------------------
    # workload operations (process helpers)
    # ------------------------------------------------------------------
    def add_item(self, customer_id: int, seller_id: int, product_id: int,
                 quantity: int, voucher_cents: int = 0):
        """Add a product to the customer's cart at the replicated price."""
        raise NotImplementedError

    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        """The Customer Checkout business transaction."""
        raise NotImplementedError

    def update_price(self, seller_id: int, product_id: int,
                     price_cents: int):
        """The Price Update business transaction."""
        raise NotImplementedError

    def delete_product(self, seller_id: int, product_id: int):
        """The Product Delete business transaction."""
        raise NotImplementedError

    def update_delivery(self):
        """The Update Delivery business transaction (10 sellers)."""
        raise NotImplementedError

    def dashboard(self, seller_id: int):
        """The Seller Dashboard (two queries; see snapshot criterion)."""
        raise NotImplementedError

    def submit_external(self, platform: str, shop_id: int,
                        ext_order_no: str, customer_id: int,
                        items: list[dict]):
        """Ingest one external-platform order, exactly once per
        ``(platform, shop_id, ext_order_no)`` — duplicates must return
        the originally created order."""
        raise NotImplementedError

    def request_return(self, customer_id: int, order_id: str):
        """The return/refund compensation saga for a completed order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # audits (zero-latency state inspection for the criteria checkers)
    # ------------------------------------------------------------------
    def audit_views(self) -> dict:
        """Return raw state views keyed by service name."""
        raise NotImplementedError

    def runtime_stats(self) -> dict:
        """Platform counters (messages, aborts, checkpoints, ...).

        Free-form and stack-specific by design — these dicts land in
        committed payloads, so their shapes are frozen.  Control-plane
        consumers use :meth:`platform_stats` instead, whose schema is
        uniform across stacks.
        """
        return {}

    def platform_stats(self) -> PlatformStats:
        """Typed control-plane snapshot; same schema on every stack:
        the host's ``control_stats()``, or the static configured shape
        with nothing resident when the app declares no host."""
        if self.scaling_host is None:
            return PlatformStats(
                silos_live=self.config.silos, silos_draining=0,
                silos_total=self.config.silos, resident=0, paged=0,
                messages=0)
        return PlatformStats(**self.scaling_host.control_stats())


def ok(operation: str, **payload) -> OperationResult:
    return OperationResult(status="ok", operation=operation,
                           payload=payload)


def rejected(operation: str, **payload) -> OperationResult:
    return OperationResult(status="rejected", operation=operation,
                           payload=payload)


def failed(operation: str, **payload) -> OperationResult:
    return OperationResult(status="failed", operation=operation,
                           payload=payload)

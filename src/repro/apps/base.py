"""The app interface the benchmark driver runs against.

Every implementation exposes the same operations — the five business
transactions of Online Marketplace plus cart item management and data
ingestion.  Operations are *process helpers* (``yield from app.op(...)``)
so that every implementation charges its own simulated costs.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
import zlib

from repro.actors import Cluster, GrainCallError
from repro.broker import Broker, DeliveryMode
from repro.config import AppConfig
from repro.control.signals import PlatformStats
from repro.marketplace.constants import Topics
from repro.marketplace.logic import customer as customer_logic
from repro.marketplace.logic import ingestion as ingestion_logic
from repro.marketplace.logic import seller as seller_logic
from repro.marketplace.logic import shipment as shipment_logic

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.workload.dataset import Dataset
    from repro.runtime import Environment


#: Largest world (in records) :meth:`MarketplaceApp.ingest` installs
#: up front; anything bigger is installed record by record on first
#: touch, so set-up stays O(1) in the configured world.
PRELOAD_MAX_RECORDS = 4096

#: The audit view each service's state lands in (:meth:`audit_views`).
SERVICE_VIEWS = {
    "product": "products", "replica": "replicas", "stock": "stock",
    "order": "orders", "payment": "payments", "shipment": "shipments",
    "customer": "customers", "seller": "sellers", "cart": "carts",
    "ingestion": "ingestion",
}


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
    """Abstract base for the four implementations: ingestion and the
    eight operations, each a process helper returning an
    :class:`OperationResult`.

    The six request operations are written here once, each a
    :meth:`_request` of one named request to one service record; a
    stack supplies only that transport.  ``update_delivery`` and
    ``dashboard`` belong to the stack family: :class:`ActorApp` writes
    them for the Orleans stacks, ``StatefunApp`` over its request/egress
    bridge."""

    name = "abstract"
    shipment_partitions = 4

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

    # Per-record installation hooks, all through the stack's _install.
    def _ingest_product(self, product) -> None:
        key = product.key
        data = product.as_dict()
        self._install("product", key, data)
        self._install("replica", key, {
            "price_cents": data["price_cents"],
            "version": data["version"], "active": data["active"]})

    def _ingest_stock(self, stock_item) -> None:
        self._install("stock", stock_item.key, stock_item.as_dict())

    def _ingest_seller(self, seller) -> None:
        self._install("seller", str(seller.seller_id),
                      seller_logic.new_seller(
                          seller.seller_id, seller.name, seller.city))

    def _ingest_customer(self, customer) -> None:
        self._install("customer", str(customer.customer_id),
                      customer_logic.new_customer(
                          customer.customer_id, customer.name,
                          customer.city))

    def _install(self, service: str, key: str, state: dict) -> None:
        """Install ``state`` as the record of ``service``/``key``."""
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

    def shipment_partition(self, order_id: str) -> str:
        """The shipment partition an order's packages live in."""
        digest = zlib.crc32(order_id.encode())
        return f"part-{digest % self.shipment_partitions}"

    # ------------------------------------------------------------------
    # workload operations (process helpers)
    # ------------------------------------------------------------------
    def _request(self, operation: str, service: str, key: str, **fields):
        """Process helper: send request ``operation`` with its named
        ``fields`` to record ``key`` of ``service`` and map the reply
        through :func:`from_reply`.  The stack's transport."""
        raise NotImplementedError

    def add_item(self, customer_id: int, seller_id: int, product_id: int,
                 quantity: int, voucher_cents: int = 0):
        """Add a product to the customer's cart at the replicated price."""
        return self._request("add_item", "cart", str(customer_id),
                             seller_id=seller_id, product_id=product_id,
                             quantity=quantity, voucher_cents=voucher_cents)

    def checkout(self, customer_id: int, order_id: str,
                 payment_method: str):
        """The Customer Checkout business transaction."""
        return self._request("checkout", "cart", str(customer_id),
                             order_id=order_id,
                             payment_method=payment_method)

    def update_price(self, seller_id: int, product_id: int,
                     price_cents: int):
        """The Price Update business transaction."""
        return self._request("update_price", "product",
                             f"{seller_id}/{product_id}",
                             price_cents=price_cents)

    def delete_product(self, seller_id: int, product_id: int):
        """The Product Delete business transaction."""
        return self._request("delete_product", "product",
                             f"{seller_id}/{product_id}")

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
        return self._request(
            "submit_external", "ingestion",
            ingestion_logic.shard_key(platform, shop_id),
            platform=platform, shop_id=shop_id, ext_order_no=ext_order_no,
            customer_id=customer_id, items=items)

    def request_return(self, customer_id: int, order_id: str):
        """The return/refund compensation saga for a completed order."""
        return self._request("request_return", "order", str(customer_id),
                             order_id=order_id)

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


def from_reply(operation: str, reply: dict) -> OperationResult:
    """Map a ``{"status": ..., **payload}`` service reply (``ok`` when
    it carries no status) to the driver's result record.  The reply is
    left as it was: on ``statefun`` it is the egress log's own record."""
    payload = dict(reply)
    status = payload.pop("status", "ok")
    if status not in ("ok", "rejected"):
        status = "failed"
    return OperationResult(status=status, operation=operation,
                           payload=payload)


def _safe_call(promise):
    """Await a grain call, mapping a platform failure (a dropped
    message, a crashed silo) to None."""
    try:
        return (yield promise)
    except GrainCallError:
        return None


def empty_views() -> dict[str, dict]:
    """One empty audit view per service."""
    return {view: {} for view in SERVICE_VIEWS.values()}


class ActorApp(MarketplaceApp):
    """Shell of the Orleans stacks: one cluster whose grain types are
    keyed by service, plus the ``update_delivery`` and ``dashboard``
    operations they share.

    A grain method is named after the operation it serves, takes the
    request's fields as keyword arguments and answers in the
    ``{"status": ..., **payload}`` vocabulary of :func:`from_reply`.  A
    stack supplies ``grains``, how its broker is built and wired, how a
    grain's state is installed and read for audits, and how a grain
    call travels: :meth:`_request` for the six request operations,
    :meth:`_gather` and :meth:`_deliver` for the ``update_delivery``
    batch.  The transport here is the plain call."""

    delivery_mode = DeliveryMode.UNORDERED
    #: Grain class per service name.
    grains: dict[str, type] = {}
    #: Key of a grain's state in its paged-out snapshot.
    paged_attr = "data"

    def __init__(self, env: "Environment",
                 config: AppConfig | None = None) -> None:
        super().__init__(env, config)
        self.cluster = Cluster(env, self.config, broker=self._broker())
        self.cluster.app = self
        self.scaling_host = self.cluster
        self._grains = dict(self.grains)
        for grain_type in self._grains.values():
            self.cluster.register_grain(grain_type)
        self._subscribe()

    def _broker(self) -> Broker:
        return Broker(self.env, default_mode=self.delivery_mode)

    def _subscribe(self) -> None:
        """Wire the stack's broker subscriptions."""
        raise NotImplementedError

    def _on_price_event(self, envelope) -> None:
        """Route product events to the cart-side replica."""
        payload = envelope.payload
        key = payload["key"]
        if payload["kind"] == "price_updated":
            self._grain("replica", key).tell(
                "apply_update", payload["price_cents"], payload["version"])
        elif payload["kind"] == "product_deleted":
            self._grain("replica", key).tell(
                "apply_delete", payload["version"])

    def _grain(self, service: str, key: str):
        return self.cluster.grain_ref(self._grains[service], key)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(self, operation: str, service: str, key: str, **fields):
        """Call the ``operation`` method of grain ``service``/``key``
        with ``fields`` as its keyword arguments and map its reply."""
        try:
            reply = yield self._grain(service, key).call(operation, **fields)
        except GrainCallError:
            return failed(operation, reason="unreachable")
        return from_reply(operation, reply)

    def _gather(self, refs: list, method: str, *args):
        """Every grain's reply to ``method``, None where the call
        failed: one parallel fan-out."""
        replies = yield self.env.all_of([
            self.env.process(_safe_call(ref.call(method, *args)))
            for ref in refs])
        return list(replies.values())

    def _deliver(self, ref, package: dict):
        """Mark one package delivered; truthy when it was."""
        return (yield from _safe_call(ref.call(
            "mark_delivered", package["order_id"], package["package_id"])))

    # ------------------------------------------------------------------
    # workload operations
    # ------------------------------------------------------------------
    def update_delivery(self):
        """Query every shipment partition, pick the first 10 sellers
        with undelivered packages, deliver each one's oldest package."""
        partitions = [self._grain("shipment", f"part-{index}")
                      for index in range(self.shipment_partitions)]
        per_partition = yield from self._gather(
            partitions, "undelivered_seller_times")
        chosen = shipment_logic.first_sellers(
            itertools.chain.from_iterable(filter(None, per_partition)),
            limit=10)
        delivered = 0
        for seller_id in chosen:
            candidates = yield from self._gather(
                partitions, "oldest_package", seller_id)
            best, best_ref = None, None
            for ref, package in zip(partitions, candidates):
                if package is not None and (
                        best is None
                        or package["shipped_at"] < best["shipped_at"]):
                    best, best_ref = package, ref
            if best is None:
                continue
            if (yield from self._deliver(best_ref, best)):
                delivered += 1
        return ok("update_delivery", sellers=len(chosen),
                  packages_delivered=delivered)

    def dashboard(self, seller_id: int):
        """Two *separate* grain calls: updates may interleave between
        them — the platform gives the dashboard no shared snapshot,
        which is exactly the snapshot criterion's failure mode."""
        seller = self._grain("seller", str(seller_id))
        try:
            amount = yield seller.call("dashboard_amount")
            entries = yield seller.call("dashboard_entries")
        except GrainCallError:
            return failed("dashboard", reason="unreachable")
        return ok("dashboard", amount_cents=amount, entries=entries,
                  entries_total_cents=seller_logic.entries_total_cents(
                      entries))

    @staticmethod
    def _live_state(grain):
        """An activation's state as the audits see it (falsy: none)."""
        return grain.data

    def audit_views(self) -> dict:
        views = empty_views()
        services = {grain_type.__name__: service
                    for service, grain_type in self._grains.items()}
        for silo in self.cluster.silos:
            for (type_name, key), activation in silo.activations.items():
                service = services.get(type_name)
                state = service and self._live_state(activation.grain)
                if state:
                    views[SERVICE_VIEWS[service]][key] = state
        # Grains paged out under the activation budget are still part
        # of the logical state the audits check.
        for (type_name, key), paged in self.cluster.paged_states().items():
            service = services.get(type_name)
            state = service and paged and paged.get(self.paged_attr)
            if state:
                views[SERVICE_VIEWS[service]].setdefault(key, state)
        views["event_log"] = [
            {"subscriber": name, "time": when,
             "order_id": envelope.key, "kind": envelope.payload["kind"]}
            for name, when, envelope in
            self.cluster.broker.deliveries(Topics.ORDER_EVENTS)]
        return views

    def runtime_stats(self) -> dict:
        return self._cluster_stats()

    def _cluster_stats(self, **extra) -> dict:
        cluster = self.cluster
        return {
            "messages_sent": cluster.messages_sent,
            "messages_dropped": cluster.messages_dropped,
            "activations": cluster.total_activations,
            **extra,
            "membership": cluster.membership_stats(),
            "utilisation": cluster.utilisation(),
            "working_set": cluster.working_set_stats(),
        }

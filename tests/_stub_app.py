"""A minimal in-memory marketplace app for driver-level tests.

Instant (fixed-latency) operations with full bookkeeping: call counts,
price versions and deletions, so driver tests can assert on submission
behaviour without the cost or nondeterminism of a real platform model.
Shared by the closed-loop, open-loop and scenario test modules.
"""

from repro.apps.base import MarketplaceApp, ok, rejected


class StubApp(MarketplaceApp):
    """Minimal in-memory app: instant operations, full bookkeeping."""

    name = "stub"

    def __init__(self, env, config=None, op_latency=0.001):
        super().__init__(env, config)
        self.op_latency = op_latency
        self.calls = {"add_item": 0, "checkout": 0, "update_price": 0,
                      "delete_product": 0, "update_delivery": 0,
                      "dashboard": 0, "submit_external": 0,
                      "request_return": 0}
        self.versions = {}
        self.deleted = set()
        self.product_adds = {}
        self.external = {}

    # Installation hooks: only a product leaves a trace (its version).
    def _ingest_seller(self, seller):
        pass

    def _ingest_customer(self, customer):
        pass

    def _ingest_product(self, product):
        self.versions[product.key] = 1

    def _ingest_stock(self, stock_item):
        pass

    def _op(self, name):
        self.calls[name] += 1
        yield self.env.timeout(self.op_latency)

    def add_item(self, customer_id, seller_id, product_id, quantity,
                 voucher_cents=0):
        yield from self._op("add_item")
        key = f"{seller_id}/{product_id}"
        self.product_adds[key] = self.product_adds.get(key, 0) + 1
        if key in self.deleted:
            return rejected("add_item", reason="unavailable")
        return ok("add_item", price_version=self.versions.get(key, 1))

    def checkout(self, customer_id, order_id, payment_method):
        yield from self._op("checkout")
        return ok("checkout", order_id=order_id, total_cents=100,
                  invoice="x")

    def update_price(self, seller_id, product_id, price_cents):
        yield from self._op("update_price")
        key = f"{seller_id}/{product_id}"
        self.versions[key] = self.versions.get(key, 1) + 1
        return ok("update_price", version=self.versions[key])

    def delete_product(self, seller_id, product_id):
        yield from self._op("delete_product")
        key = f"{seller_id}/{product_id}"
        self.deleted.add(key)
        self.versions[key] = self.versions.get(key, 1) + 1
        return ok("delete_product", version=self.versions[key])

    def update_delivery(self):
        yield from self._op("update_delivery")
        return ok("update_delivery", sellers=0, packages_delivered=0)

    def dashboard(self, seller_id):
        yield from self._op("dashboard")
        return ok("dashboard", amount_cents=0, entries=[],
                  entries_total_cents=0)

    def submit_external(self, platform, shop_id, ext_order_no,
                        customer_id, items):
        yield from self._op("submit_external")
        key = f"{platform}/{shop_id}/{ext_order_no}"
        known = key in self.external
        if not known:
            self.external[key] = f"x{key}"
        return ok("submit_external", order_id=self.external[key],
                  idempotent=known, invoice="x", total_cents=100)

    def request_return(self, customer_id, order_id):
        yield from self._op("request_return")
        return ok("request_return", order_id=order_id,
                  outcome="returned", refund_cents=100)

    def audit_views(self):
        return {}

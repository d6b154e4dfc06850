"""The seller dashboard, three ways: why snapshots matter.

The dashboard issues two queries: (1) the financial amount of orders in
progress for a seller, and (2) the tuples that amount was computed
from.  The benchmark's criterion: both must reflect the same snapshot.

This example hammers one seller with concurrent checkouts while
repeatedly reading the dashboard on (a) the eventual implementation
(two independent grain reads) and (b) the customized implementation
(both queries on one SQL table in one simulation step, so no write
lands between them), and reports how often the pair disagreed.

Run with:  python examples/seller_dashboard.py
"""

from repro.apps import ALL_APPS, AppConfig
from repro.core import Dataset, WorkloadConfig
from repro.marketplace.constants import PaymentMethod
from repro.runtime import Environment

CHECKOUTS = 150
DASHBOARD_PROBES = 200


def run(app_name: str):
    env = Environment(seed=3)
    app = ALL_APPS[app_name](env, AppConfig(silos=2, cores_per_silo=4))
    workload = WorkloadConfig(sellers=2, customers=60,
                              products_per_seller=8)
    app.ingest(Dataset(workload, seed=3))
    dataset = app.dataset

    target_seller = 1
    products = [product for product in dataset.products
                if product.seller_id == target_seller]

    def shopper(customer_id, index):
        """One customer: fill the cart with the target seller's goods,
        check out, and (eventually) let delivery complete the order."""
        product = products[index % len(products)]
        result = yield from app.add_item(
            customer_id, product.seller_id, product.product_id, 1)
        if not result.ok:
            return
        yield from app.checkout(customer_id, f"o{customer_id}-{index}",
                                PaymentMethod.CREDIT_CARD)

    def delivery_loop():
        while True:
            yield env.timeout(0.05)
            yield from app.update_delivery()

    mismatches = 0
    probes_done = 0

    def prober():
        nonlocal mismatches, probes_done
        while probes_done < DASHBOARD_PROBES:
            yield env.timeout(0.002)
            result = yield from app.dashboard(target_seller)
            if not result.ok:
                continue
            probes_done += 1
            if (result.payload["amount_cents"]
                    != result.payload["entries_total_cents"]):
                mismatches += 1

    for index in range(CHECKOUTS):
        customer = dataset.customer_ids[index % len(dataset.customer_ids)]
        env.process(shopper(customer, index))
    env.process(delivery_loop())
    env.process(prober())
    env.run(until=10.0)
    return probes_done, mismatches


def main() -> None:
    print("snapshot consistency of the two dashboard queries under "
          "concurrent checkouts:\n")
    for app_name in ("orleans-eventual", "statefun",
                     "customized-orleans"):
        probes, mismatches = run(app_name)
        mechanism = {
            "orleans-eventual": "two independent grain reads",
            "statefun": "two independent function invocations",
            "customized-orleans": "both queries in one step on one table",
        }[app_name]
        print(f"{app_name:22s} ({mechanism})")
        print(f"{'':22s} {probes} probes, {mismatches} inconsistent "
              f"query pairs\n")
    print("Only the SQL-backed dashboard satisfies the snapshot "
          "criterion:\nits aggregate and its tuples can never disagree.")


if __name__ == "__main__":
    main()

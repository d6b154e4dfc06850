"""Exactly-once in action: crash the dataflow mid-workload.

The Statefun implementation survives failures by rolling every
partition back to the last aligned checkpoint and replaying the ingress
log; deduplicated egress turns the replay into exactly-once end-to-end
effects.  This example injects two crashes during a run and shows that
order counts, stock levels and customer spend come out exactly as if
nothing had failed.

Run with:  python examples/failure_recovery.py
"""

from repro.apps import AppConfig, StatefunApp
from repro.core import Dataset, WorkloadConfig
from repro.costs import CostModel
from repro.marketplace.constants import PaymentMethod
from repro.runtime import Environment

CHECKOUTS = 60


def run(crashes: int):
    env = Environment(seed=5)
    app = StatefunApp(env, AppConfig(
        silos=2, cores_per_silo=4, checkpoint_interval=0.2,
        costs=CostModel(recovery_pause=0.1)))
    workload = WorkloadConfig(sellers=3, customers=30,
                              products_per_seller=5)
    app.ingest(Dataset(workload, seed=5))
    dataset = app.dataset
    products = dataset.products

    completed = []

    def shopper(customer_id, index):
        product = products[index % len(products)]
        result = yield from app.add_item(
            customer_id, product.seller_id, product.product_id, 2)
        if not result.ok:
            return
        result = yield from app.checkout(
            customer_id, f"o{customer_id}-{index}",
            PaymentMethod.CREDIT_CARD)
        if result.ok:
            completed.append(result.payload["order_id"])

    def crasher():
        for _ in range(crashes):
            yield env.timeout(0.35)
            yield from app.runtime.inject_failure()

    for index in range(CHECKOUTS):
        customer = dataset.customer_ids[index % len(dataset.customer_ids)]
        env.process(shopper(customer, index))
    if crashes:
        env.process(crasher())
    env.run(until=20.0)

    views = app.audit_views()
    total_stock = sum(item["qty_available"]
                      for item in views["stock"].values())
    total_spent = sum(customer["spent_cents"]
                      for customer in views["customers"].values())
    order_count = sum(len(state.get("orders", {}))
                      for state in views["orders"].values())
    return {
        "completed_checkouts": len(completed),
        "orders_recorded": order_count,
        "total_stock": total_stock,
        "customer_spend": total_spent,
        "recoveries": app.runtime.recoveries,
        "checkpoints": app.runtime.checkpoints_taken,
    }


def main() -> None:
    clean = run(crashes=0)
    crashed = run(crashes=2)

    print(f"{'metric':22s} {'no failures':>13s} {'2 crashes':>13s}")
    print("-" * 50)
    for key in ("completed_checkouts", "orders_recorded", "total_stock",
                "customer_spend", "recoveries", "checkpoints"):
        print(f"{key:22s} {clean[key]:>13,} {crashed[key]:>13,}")

    for key in ("completed_checkouts", "orders_recorded", "total_stock",
                "customer_spend"):
        assert clean[key] == crashed[key], key
    print("\nAll business outcomes identical: checkpoint/replay plus "
          "deduplicated\negress gave exactly-once effects through two "
          "injected crashes.")


if __name__ == "__main__":
    main()

"""Orleans Eventual: virtual actors with eventual consistency.

The paper's baseline: "it does not ensure all actions are complete as
part of a business transaction but exhibits the highest throughput."
Events flow over unordered topics, side effects are fire-and-forget,
and nothing coordinates concurrent checkouts beyond per-grain turn
concurrency.
"""

from __future__ import annotations

from repro.apps.base import ActorApp
from repro.apps.grains_eventual import EVENTUAL_GRAINS
from repro.broker import Broker
from repro.marketplace.constants import Topics


class OrleansEventualApp(ActorApp):
    """Eventually-consistent Online Marketplace on virtual actors."""

    name = "orleans-eventual"
    grains = EVENTUAL_GRAINS

    def _broker(self) -> Broker:
        # In the eventual architecture, replica propagation delay IS the
        # broker delivery latency — tie it to the replication_lag cost
        # so the replication ablation sweeps both stacks comparably.
        lag = self.config.costs.replication_lag
        return Broker(self.env, default_mode=self.delivery_mode,
                      base_latency=lag, jitter=3 * lag)

    def _subscribe(self) -> None:
        broker = self.cluster.broker
        broker.subscribe(Topics.PRICE_UPDATES, "cart-replica-service",
                         self._on_price_event)
        broker.subscribe(Topics.ORDER_EVENTS, "seller-service",
                         self._on_order_event)

    def _on_price_event(self, envelope) -> None:
        """Also deactivate a deleted product's stock item: nothing
        transactional does it on this stack."""
        super()._on_price_event(envelope)
        payload = envelope.payload
        if payload["kind"] == "product_deleted":
            self._grain("stock", payload["key"]).tell(
                "deactivate", payload["version"])

    def _on_order_event(self, envelope) -> None:
        """Route order lifecycle events to the affected seller grains."""
        payload = envelope.payload
        for seller_id in payload.get("sellers", ()):
            self._grain("seller", str(seller_id)).tell(
                "apply_order_event", payload)

    def _install(self, service: str, key: str, state: dict) -> None:
        self.cluster.grain_instance(self._grain(service, key)).data = state

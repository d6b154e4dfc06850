"""The one operation surface of the app stacks.

`MarketplaceApp` writes the six request operations once and `ActorApp`
the other two for the Orleans stacks; a stack supplies only how a
request travels.  Replies map through the one
`from_reply`, which leaves the reply it maps untouched, and only
platform failures (dropped messages, crashed silos, aborted
transactions) become `failed` results — a grain bug surfaces.
"""

import pytest

from repro.apps import (
    ALL_APPS,
    AppConfig,
    MarketplaceApp,
    OrleansEventualApp,
    OrleansTransactionsApp,
    StatefunApp,
)
from repro.apps.base import ActorApp
from repro.control import run_scenario
from repro.core import Dataset, WorkloadConfig
from repro.runtime import Environment

#: The marketplace operations every app answers.
OPERATIONS = ("add_item", "checkout", "update_price", "delete_product",
              "update_delivery", "dashboard", "submit_external",
              "request_return")

#: The operations that are one request to one service record.
REQUESTS = ("add_item", "checkout", "update_price", "delete_product",
            "submit_external", "request_return")

#: Egress kinds that answer a driver request through `from_reply`.
REPLY_KINDS = {"add_item", "checkout", "update_price", "delete_product",
               "update_delivery", "submit_external", "request_return"}

ACTOR_APPS = [name for name, factory in ALL_APPS.items()
              if issubclass(factory, ActorApp)]


def test_every_operation_is_declared_by_marketplace_app():
    assert all(callable(vars(MarketplaceApp).get(name))
               for name in OPERATIONS)


#: The operations each stack leaves to the classes above it.
INHERITED = {
    ActorApp: REQUESTS,
    OrleansEventualApp: OPERATIONS,
    OrleansTransactionsApp: OPERATIONS,
    # A statefun checkout keeps its order id as request id.
    StatefunApp: set(REQUESTS) - {"checkout"},
}


@pytest.mark.parametrize("stack", list(INHERITED))
def test_orleans_stacks_define_no_operation(stack):
    """A stack is its transport: the request operations live in
    `MarketplaceApp`, the other two in `ActorApp` on Orleans."""
    assert sorted(set(INHERITED[stack]) & set(vars(stack))) == []


@pytest.mark.parametrize("name", ACTOR_APPS)
def test_grain_bug_surfaces_instead_of_failing_the_operation(
        name, monkeypatch):
    env = Environment(seed=3)
    app = ALL_APPS[name](env, AppConfig(silos=2, cores_per_silo=2))
    app.ingest(Dataset(WorkloadConfig(sellers=2, customers=4,
                                      products_per_seller=2), seed=3))

    def broken_add_item(self, *args, **kwargs):
        raise KeyError("broken grain")

    monkeypatch.setattr(app._grains["cart"], "add_item", broken_add_item)
    with pytest.raises(KeyError, match="broken grain"):
        env.run(until=env.process(app.add_item(1, 1, 1, 1)))


def test_statefun_replies_keep_their_status_after_the_driver_maps_them():
    run = run_scenario("baseline", "statefun", seed=5,
                       duration_scale=0.15, audit=False)
    records = [payload for _, kind, payload in run.app.runtime.egress_log
               if kind in REPLY_KINDS]
    assert records
    assert [record for record in records if "status" not in record] == []

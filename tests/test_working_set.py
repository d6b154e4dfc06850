"""Activation working-set control: evict, reload, preserve state.

Every stack honours ``AppConfig.activation_limit`` — the Orleans
clusters page quiet grains out through the pager under an LRU sweep,
Statefun spills checkpointed addresses to a cold tier — and every
stack must bring state back bit-for-bit when traffic returns.  These
tests drive real marketplace transactions under a deliberately tiny
budget and assert the three observable guarantees:

* the budget bites (evictions > 0) and reloads happen when evicted
  entities are touched again;
* business state survives the evict/re-activate round trip (price
  versions keep counting, checkouts still decrement the right stock);
* the business outcome is identical to an unlimited run — paging is
  a memory policy, not a semantics change.
"""

import cProfile
import functools
import hashlib

import pytest

from repro.actors import Cluster, ClusterConfig, Grain
from repro.actors.cluster import PAGER_WRITE_LATENCY, WORKING_SET_SWEEP
from repro.actors.silo import Silo
from repro.apps import ALL_APPS, AppConfig
from repro.apps.grains_eventual import ProductGrain
from repro.core import BenchmarkDriver, Dataset, DriverConfig, WorkloadConfig
from repro.control import run_scenario
from repro.marketplace.constants import OrderStatus, PaymentMethod
from repro.runtime import Environment
from repro.sqlstore import eq

APP_NAMES = list(ALL_APPS)
ORLEANS_APPS = [name for name in APP_NAMES if name != "statefun"]

SMALL = WorkloadConfig(sellers=4, customers=16, products_per_seller=4,
                       initial_stock=1000)
TIGHT_LIMIT = 8  # per silo/worker — far below the ~70-grain world


def make_app(name, activation_limit=None, seed=7):
    env = Environment(seed=seed)
    app = ALL_APPS[name](env, AppConfig(
        silos=2, cores_per_silo=2, activation_limit=activation_limit))
    app.ingest(Dataset(SMALL, seed=seed))
    return env, app


def run_op(env, generator):
    process = env.process(generator)
    return env.run(until=process)


def settle(env, delta=2.0):
    """Let sweeps/checkpoints run with no traffic in flight."""
    env.run(until=env.now + delta)


def touch_all_products(env, app):
    results = []
    for product in app.dataset.products:
        results.append(run_op(env, app.update_price(
            product.seller_id, product.product_id,
            product.price_cents + 100)))
    return results


def business_outcome(app):
    views = app.audit_views()
    products = {key: (state["price_cents"], state["version"])
                for key, state in views["products"].items()}
    stock = {key: (state["qty_available"], state["qty_reserved"])
             for key, state in views["stock"].items()}
    return products, stock


@pytest.mark.parametrize("name", APP_NAMES)
class TestWorkingSetBudget:
    def test_budget_bites_and_reloads(self, name):
        env, app = make_app(name, activation_limit=TIGHT_LIMIT)
        # First pass touches every product grain; the quiet ones get
        # swept out while later ones are being updated.
        for result in touch_all_products(env, app):
            assert result.ok, result
        settle(env)
        stats = app.runtime_stats()["working_set"]
        assert stats["limit"] == TIGHT_LIMIT
        assert stats["evictions"] > 0, stats
        # Second pass re-touches them all: evicted grains must come
        # back through the pager, not as blank activations.
        for result in touch_all_products(env, app):
            assert result.ok, result
        stats = app.runtime_stats()["working_set"]
        assert stats["reloads"] > 0, stats

    def test_state_survives_round_trip(self, name):
        env, app = make_app(name, activation_limit=TIGHT_LIMIT)
        target = app.dataset.products[0]
        first = run_op(env, app.update_price(
            target.seller_id, target.product_id, 12_345))
        assert first.ok
        # Evict the target by touching the rest of the world and
        # letting the sweep run.
        for product in app.dataset.products[1:]:
            assert run_op(env, app.update_price(
                product.seller_id, product.product_id,
                product.price_cents + 1)).ok
        settle(env)
        # The audited view must still see the paged-out update ...
        view = app.audit_views()["products"][target.key]
        assert view["price_cents"] == 12_345
        # ... and a fresh transaction continues from that state: the
        # version counter keeps counting instead of restarting.
        second = run_op(env, app.update_price(
            target.seller_id, target.product_id, 23_456))
        assert second.ok
        view = app.audit_views()["products"][target.key]
        assert view["price_cents"] == 23_456
        assert view["version"] == first.payload["version"] + 1

    def test_checkout_across_eviction(self, name):
        env, app = make_app(name, activation_limit=TIGHT_LIMIT)
        target = app.dataset.products[0]
        assert run_op(env, app.add_item(
            1, target.seller_id, target.product_id, 5)).ok
        # Page the cart/stock world out from under the open cart.
        touch_all_products(env, app)
        settle(env)
        result = run_op(env, app.checkout(
            1, "order-ws-1", PaymentMethod.CREDIT_CARD))
        assert result.ok, result
        settle(env)
        stock = app.audit_views()["stock"][target.key]
        assert stock["qty_available"] == SMALL.initial_stock - 5
        assert stock["qty_reserved"] == 0

    def test_no_limit_means_no_paging(self, name):
        env, app = make_app(name, activation_limit=None)
        touch_all_products(env, app)
        settle(env)
        stats = app.runtime_stats()["working_set"]
        assert stats["limit"] is None
        assert stats["evictions"] == 0
        assert stats["reloads"] == 0
        assert stats["paged"] == 0

    def test_outcome_matches_unlimited_run(self, name):
        """Paging is a memory policy, not a semantics change."""
        outcomes = []
        for limit in (None, TIGHT_LIMIT):
            env, app = make_app(name, activation_limit=limit)
            assert run_op(env, app.add_item(2, 1, 1, 3)).ok
            touch_all_products(env, app)
            assert run_op(env, app.checkout(
                2, "order-par-1", PaymentMethod.DEBIT_CARD)).ok
            settle(env)
            outcomes.append(business_outcome(app))
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", ORLEANS_APPS)
def test_resident_population_respects_limit(name):
    """After traffic quiesces, each silo holds at most the budget."""
    env, app = make_app(name, activation_limit=TIGHT_LIMIT)
    touch_all_products(env, app)
    settle(env)
    stats = app.runtime_stats()["working_set"]
    assert stats["resident"] <= TIGHT_LIMIT * app.config.silos, stats
    assert stats["paged"] > 0
    assert stats["peak_resident"] >= stats["resident"]


def first_evicted_product():
    """A budgeted orleans-eventual app whose first working-set sweep
    (t = 0.05 s) starts by paging out the first product's grain, plus
    that grain's ref."""
    env, app = make_app("orleans-eventual", activation_limit=TIGHT_LIMIT)
    ref = app.cluster.grain_ref(ProductGrain, app.dataset.products[0].key)
    return env, app, ref


def during_eviction_write(app, ref, action):
    """Run ``action()`` as the pager starts writing ``ref``'s eviction
    snapshot (a write of ``PAGER_WRITE_LATENCY`` = 0.4 ms)."""
    pager = app.cluster.pager
    write = pager.write
    started = []

    def hooked(ident, payload, then):
        if ident == ref.ident and not started:
            started.append(app.env.now)
            action()
        write(ident, payload, then)

    pager.write = hooked
    return started


def test_call_landing_mid_eviction_aborts_it_and_is_served():
    env, app, ref = first_evicted_product()
    cluster = app.cluster
    grain = cluster.grain_instance(ref)
    silo = grain.silo
    replies = []

    def late_local_call(_event):
        replies.append(ref.call("update_price", 4242, caller_silo=silo))

    # Sent 0.3 ms into the write, the call lands 0.35 ms in and still
    # holds its core (0.1 ms) when the write completes.
    started = during_eviction_write(
        app, ref, lambda: env.call_after(0.0003, late_local_call))
    env.run(until=0.06)
    assert started and replies
    assert replies[0].value == {"version": 2}
    # The eviction aborted: same activation, nothing registered paged.
    assert not cluster.is_paged(grain)
    assert silo.activations[ref.ident].grain is grain
    assert grain.data["price_cents"] == 4242


def test_turn_inside_the_write_window_survives_via_the_re_snapshot():
    env, app, ref = first_evicted_product()
    cluster = app.cluster
    grain = cluster.grain_instance(ref)
    silo = grain.silo
    replies = []

    # Lands 0.05 ms into the write and is done 0.1 ms later: the grain
    # is quiet again when the write completes, but its snapshot is not.
    started = during_eviction_write(app, ref, lambda: replies.append(
        ref.call("update_price", 4242, caller_silo=silo)))
    env.run(until=0.06)
    assert started and replies
    assert replies[0].value == {"version": 2}
    assert cluster.is_paged(grain)
    assert ref.ident not in silo.activations
    # The paged copy is the refreshed snapshot, and re-activation
    # continues from it.
    assert cluster.pager.peek(ref.ident)["data"]["price_cents"] == 4242
    promise = ref.call("update_price", 4343)
    assert env.run(until=promise) == {"version": 3}
    assert not cluster.is_paged(grain)


def test_statefun_cold_tier_survives_failure():
    """Cold addresses are re-hydrated from checkpoints on recovery."""
    env, app = make_app("statefun", activation_limit=TIGHT_LIMIT)
    touch_all_products(env, app)
    settle(env)  # checkpoint covers the updates, budget sweep spills
    before = business_outcome(app)
    run_op(env, app.runtime.inject_failure())
    settle(env)
    assert business_outcome(app) == before


@functools.lru_cache(maxsize=None)
def _closed_loop_cell(sellers):
    """Short closed-loop run against ``sellers`` x 1000 product keys
    (one run per size, shared by the tests below)."""
    env = Environment(seed=11)
    app = ALL_APPS["orleans-eventual"](env, AppConfig(
        silos=2, cores_per_silo=2, activation_limit=500))
    driver = BenchmarkDriver(
        env, app,
        WorkloadConfig(sellers=sellers, products_per_seller=1000,
                       customers=1000, zipf_s=0.8),
        DriverConfig(workers=16, warmup=0.1, duration=0.4, drain=0.3))
    driver.run()
    return {**app.runtime_stats()["working_set"],
            "touched_products":
                app.dataset.summary()["touched_products"]}


def test_working_set_tracks_traffic_not_world_size():
    """The same traffic against a 10x larger keyspace touches — and
    keeps resident — almost the same working set: cost follows the
    touched set, not the configured world.  (The host-memory side of
    this claim is the ledger's ``host.peak_mem_mb`` on
    ``bigworld-eventual``.)"""
    small = _closed_loop_cell(sellers=100)     # 10^5 product keys
    large = _closed_loop_cell(sellers=1000)    # 10^6 product keys
    # Generation is on demand: a vanishing share of the million keys.
    assert large["touched_products"] < 0.01 * 1_000_000, large
    # The budget bites on the large world: grains page out and back.
    assert large["evictions"] > 0 and large["reloads"] > 0, large
    # Measured ratios at this seed are 1.02 / 1.07 / 1.08; an eager
    # world would be ~10x.
    for counter in ("touched_products", "activations", "peak_resident"):
        assert 0 < large[counter] < 1.25 * small[counter], \
            (counter, small, large)


def test_evicting_cell_counters_are_pinned():
    """No golden cell evicts, so this cell pins the eviction order: a
    change to which grains the sweep picks, or when, moves at least
    one of these counters."""
    assert _closed_loop_cell(sellers=1000) == {
        "activations": 6756, "evictions": 1750, "reloads": 134,
        "peak_resident": 5730, "resident": 5006, "paged": 1616,
        "limit": 500, "touched_products": 1450}


def test_customized_dashboard_retires_orders_paged_out_mid_batch():
    """A delivery batch retires the dashboard rows of every completed
    order, including those whose order grain was paged out after the
    order completed (it used to scan resident grains only, leaving such
    rows ``in_transit`` and the dashboard overstating revenue)."""
    run = run_scenario("baseline", app="customized-orleans", seed=5,
                       duration_scale=0.5, activation_limit=20,
                       audit=False)
    app = run.app
    assert app.cluster.working_set.evictions > 0
    paged = [payload["state"] for (type_name, _), payload
             in app.cluster.paged_states().items()
             if type_name == "TxnOrderGrain" and payload]
    resident = [activation.grain._participant.committed_state
                for silo in app.cluster.silos
                for (type_name, _), activation in silo.activations.items()
                if type_name == "TxnOrderGrain"
                and activation.grain._participant is not None]
    status = {order_id: order["status"] for state in resident + paged
              for order_id, order in state.get("orders", {}).items()}
    assert OrderStatus.COMPLETED in status.values()
    rows = app.sql.scan(eq("status", OrderStatus.IN_TRANSIT))
    stuck = [row["order_id"] for row in rows
             if status.get(row["order_id"]) == OrderStatus.COMPLETED]
    assert stuck == []


class Idle(Grain):
    """A grain whose ``hold`` stays in flight for a sim second."""

    def touch(self):
        return None

    def hold(self):
        yield self.env.timeout(1.0)


def one_silo_cluster():
    env = Environment(seed=3)
    cluster = Cluster(env, ClusterConfig(silos=1))
    return env, cluster, cluster.silos[0]


def activate(cluster, silo, count):
    return [silo.activation_for(cluster, Idle, f"k{index}")
            for index in range(count)]


def test_lru_victims_are_least_recently_enqueued_quiet_activations():
    env, cluster, silo = one_silo_cluster()
    grains = activate(cluster, silo, 5)
    for index in (3, 1):
        env.run(until=cluster.grain_ref(Idle, f"k{index}").call("touch"))
    assert cluster._lru_victims(silo, 5) == [
        grains[0], grains[2], grains[4], grains[3], grains[1]]
    assert cluster._lru_victims(silo, 2) == [grains[0], grains[2]]
    # In flight (k2) or queued (k0): not a victim until quiet again.
    cluster.grain_ref(Idle, "k2").call("hold")
    env.run(until=env.now + 0.5)
    assert grains[2].inflight
    grains[0].mailbox.append(None)
    assert cluster._lru_victims(silo, 5) == [grains[4], grains[3],
                                             grains[1]]
    grains[0].mailbox.clear()
    env.run(until=env.now + 1.0)
    assert cluster._lru_victims(silo, 5) == [
        grains[0], grains[4], grains[3], grains[1], grains[2]]


def test_lru_holds_exactly_the_resident_activations():
    env = Environment(seed=3)
    cluster = Cluster(env, ClusterConfig(silos=2))
    first, second = cluster.silos

    def assert_in_step():
        for silo in cluster.silos:
            assert set(silo.lru) == set(silo.activations.values())

    activations = activate(cluster, first, 4)
    env.run(until=cluster.grain_ref(Idle, "k1").call("touch"))
    assert_in_step()
    first.deactivate("Idle", "k0")
    assert_in_step()
    moved = activations[2].grain
    first.deactivate("Idle", "k2")
    second.adopt(cluster, moved)
    assert_in_step()
    assert list(second.lru) == [second.activations[("Idle", "k2")]]
    first.crash()
    assert_in_step()
    assert not first.lru


def _lru_victims_calls(resident):
    """Python calls (cProfile, builtins off) of one ten-victim pick on
    a silo holding ``resident`` quiet activations and no budget."""
    _env, cluster, silo = one_silo_cluster()
    activate(cluster, silo, resident)
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    victims = cluster._lru_victims(silo, 10)
    profiler.disable()
    assert len(victims) == 10
    return sum(entry.callcount for entry in profiler.getstats())


def test_lru_victims_cost_follows_victims_not_resident_set():
    """The pick walks the LRU head: ten times the resident population
    costs not one Python call more.  (A scan-and-sort of every
    resident activation measured 222 against 2 022 calls; the LRU
    walk is one call at both sizes.)"""
    assert _lru_victims_calls(110) == _lru_victims_calls(1010)


def test_sweep_evicts_and_reloads_in_the_pinned_order(monkeypatch):
    """Every eviction and reload of a small budgeted closed-loop cell,
    as ``(env.now, kind, type name, key)``, in order.  The digest was
    taken while the sweep still ran as a generator process; running it
    as kernel callbacks must not move one entry by one tick."""
    env = Environment(seed=7)
    app = ALL_APPS["orleans-eventual"](env, AppConfig(
        silos=2, cores_per_silo=2, activation_limit=TIGHT_LIMIT))
    log = []
    deactivate, page_in = Silo.deactivate, Grain.page_in

    def logged_deactivate(silo, type_name, key):
        log.append((env.now, "evict", type_name, key))
        return deactivate(silo, type_name, key)

    def logged_page_in(grain, paged):
        log.append((env.now, "reload", type(grain).__name__, grain.key))
        return page_in(grain, paged)

    monkeypatch.setattr(Silo, "deactivate", logged_deactivate)
    monkeypatch.setattr(Grain, "page_in", logged_page_in)
    BenchmarkDriver(env, app, SMALL, DriverConfig(
        workers=8, warmup=0.05, duration=0.3, drain=0.2)).run()
    kinds = [entry[1] for entry in log]
    assert (kinds.count("evict"), kinds.count("reload")) == (599, 234)
    assert log[:2] == [(0.0504, "evict", "ProductGrain", "1/2"),
                       (0.0508, "evict", "ProductGrain", "1/3")]
    assert log[kinds.index("reload")] == (
        0.055348965459812625, "reload", "ProductGrain", "1/3")
    assert env.events_processed == 26272
    assert hashlib.sha256(repr(log).encode()).hexdigest() == (
        "4e45f9c338ac8e2add35493d019bc97069f9bdafbe0a8a7be6220a47bfed1617")


class Pageable(Grain):
    """A grain with one paged attribute and nothing to do."""

    paged_attrs = ("value",)
    value = 0


def _page_out_calls(victims):
    """Python calls (cProfile, builtins off) of the kernel step that
    completes one page-out and starts the next, in a sweep that pages
    out ``victims`` grains."""
    env = Environment(seed=3)
    cluster = Cluster(env, ClusterConfig(silos=1, activation_limit=10))
    silo = cluster.silos[0]
    for index in range(10 + victims):
        silo.activation_for(cluster, Pageable, f"k{index}")
    env.run(until=WORKING_SET_SWEEP + PAGER_WRITE_LATENCY)
    assert cluster.working_set.evictions == 1
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    env.run(until=env.now + PAGER_WRITE_LATENCY)
    profiler.disable()
    assert cluster.working_set.evictions == 2
    return sum(entry.callcount for entry in profiler.getstats())


def test_page_out_cost_follows_the_victim_not_the_sweep():
    """A page-out resumes the sweep where it stopped: ten times the
    victims cost the page-out not one Python call more."""
    assert _page_out_calls(10) == _page_out_calls(100)


def test_message_to_an_activated_grain_routes_from_the_directory():
    """Once a grain is activated, its messages route from the grain
    directory alone: the ring is not consulted, and no routing helper
    runs."""
    env, cluster, silo = one_silo_cluster()
    ref = cluster.grain_ref(Idle, "k")
    env.run(until=ref.call("touch"))  # activates the grain
    assert cluster.directory.lookup(*ref.ident) is silo
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    env.run(until=ref.call("touch"))
    profiler.disable()
    names = {entry.code.co_name for entry in profiler.getstats()
             if not isinstance(entry.code, str)}
    assert not {"place", "_target_for", "lookup"} & names, names

"""F8 — open-loop scenario suite: queueing delay under arrival control.

The paper's driver is closed-loop, which cannot express arrival-driven
overload: workers slow down with the system and the offered load
silently adapts (coordinated omission).  This bench replays the named
open-loop scenarios and checks the properties that motivated them:

* the overload ramp saturates its dispatch pool — queueing delay grows
  to dominate service latency while service latency itself stays flat;
* the baseline stays under capacity — negligible queueing;
* the flash-sale hotspot concentrates sampling onto the hot ranks;
* arrivals are conserved (dispatched + shed == arrivals).
"""

import pytest
from _harness import print_table, quick_scaled

from repro.control import run_scenario

SCENARIO_ORDER = ("baseline", "flash-sale", "heavy-writer",
                  "burst-then-quiesce", "delete-churn", "overload-ramp")


def run_one(name: str, app_name: str = "orleans-eventual"):
    return run_scenario(name, app=app_name, seed=7, silos=2, cores=2,
                        duration_scale=quick_scaled(1.0), audit=False)


def run_suite():
    return {name: run_one(name) for name in SCENARIO_ORDER}


@pytest.mark.benchmark(group="f8-open-loop")
def test_f8_scenario_suite(benchmark):
    results = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    rows = []
    for name in SCENARIO_ORDER:
        metrics = results[name].metrics
        stats = metrics.open_loop
        rows.append({
            "scenario": name,
            "offered/s": round(stats["offered_rate"], 1),
            "arrivals": stats["arrivals"],
            "completed": stats["completed"],
            "shed": stats["shed"],
            "max_queue": stats["max_queue"],
            "tx/s": round(metrics.total_throughput, 1),
            "checkout svc p99 ms": round(
                metrics.latency_of("checkout", "p99") * 1000, 2),
            "checkout queue p99 ms": round(
                metrics.queue_delay_of("checkout", "p99") * 1000, 2),
        })
    print_table("F8: open-loop scenario suite (orleans-eventual)", rows)

    for name in SCENARIO_ORDER:
        metrics = results[name].metrics
        stats = metrics.open_loop
        # Arrival conservation: every arrival is dispatched or shed,
        # and everything dispatched eventually completes (the drain is
        # long enough for these scales).
        assert stats["dispatched"] + stats["shed"] == stats["arrivals"]
        assert stats["completed"] > 0
        # Committed work exists and the timeline accounts for it.
        assert metrics.total_throughput > 0
        assert sum(count for _, count in metrics.timeline) == \
            sum(op.ok for op in metrics.ops.values())

    baseline = results["baseline"].metrics
    ramp = results["overload-ramp"].metrics
    # The baseline runs under capacity: queueing delay is negligible
    # next to service latency.
    assert baseline.queue_delay_of("checkout", "p95") <= \
        baseline.latency_of("checkout", "p95")
    # The ramp crosses the pool's capacity: its queue grows well past
    # the baseline's and queue wait dominates service time at p95.
    assert ramp.open_loop["max_queue"] > \
        10 * max(1, baseline.open_loop["max_queue"])
    assert ramp.queue_delay_of("checkout", "p95") > \
        5 * ramp.latency_of("checkout", "p95")

    flash = results["flash-sale"].metrics
    # The hotspot overlay actually fired during the spike window.
    assert results["flash-sale"].driver.sampler.hot_draws > 0
    # The spike shows up as queueing the calm baseline never sees.
    assert flash.queue_delay_of("checkout", "p99") > \
        baseline.queue_delay_of("checkout", "p99")


@pytest.mark.benchmark(group="f8-open-loop")
def test_f8_queueing_separates_platforms(benchmark):
    """Under the same overload ramp, slower platforms queue deeper."""

    def run_pair():
        return {app: run_one("overload-ramp", app_name=app).metrics
                for app in ("orleans-eventual", "orleans-transactions")}

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    rows = [{
        "app": app,
        "tx/s": round(metrics.total_throughput, 1),
        "max_queue": metrics.open_loop["max_queue"],
        "checkout queue p95 ms": round(
            metrics.queue_delay_of("checkout", "p95") * 1000, 2),
    } for app, metrics in results.items()]
    print_table("F8: overload ramp across platforms", rows)

    eventual = results["orleans-eventual"]
    transactions = results["orleans-transactions"]
    # The transactional platform saturates earlier: same offered ramp,
    # deeper queue.
    assert transactions.open_loop["max_queue"] >= \
        eventual.open_loop["max_queue"]

"""F9 — fault-tolerance scenarios: availability under membership churn.

The paper's comparison is about how much application safety each
data-management runtime preserves under adverse conditions.  This bench
replays the membership-fault scenarios on the two Orleans platforms and
prints the availability story each produces:

* ``silo-crash`` — both platforms show a bounded unavailability window
  and a finite recovery time, and both lose volatile grain state (the
  marketplace grains model in-memory deployments); what differs is the
  caller experience: the transactional platform masks the outage
  behind transaction retries while the eventual platform serves
  errors until failure detection evicts the dead silo;
* ``rolling-restart`` — drains hand state off cleanly, so the restart
  is invisible: no errors, no state loss;
* ``scale-out-under-load`` — joins migrate grains while traffic flows
  and capacity grows mid-run.
"""

import pytest
from _harness import print_table

from repro.analysis.availability import availability_report
from repro.control import run_scenario

FAULT_APPS = ("orleans-eventual", "orleans-transactions")


def run_fault_scenario(name: str, app_name: str,
                       rate_scale: float = 0.5):
    # Always full duration: shrinking the time axis below the cluster's
    # failure-detection delay would smear the outage across the whole
    # (tiny) window and leave no pre-fault baseline.  Half rate keeps
    # the full-length run cheap enough for the CI smoke job.
    metrics = run_scenario(name, app=app_name, seed=7,
                           rate_scale=rate_scale, audit=False).metrics
    return metrics, availability_report(metrics)


@pytest.mark.benchmark(group="f9-fault-tolerance")
def test_f9_silo_crash_across_platforms(benchmark):
    def run_pair():
        return {app: run_fault_scenario("silo-crash", app)
                for app in FAULT_APPS}

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    rows = []
    for app, (metrics, report) in results.items():
        row = report.summary_row()
        row["txn_silo_retries"] = metrics.runtime.get(
            "transactions", {}).get("silo_retries", "-")
        rows.append(row)
    print_table("F9: silo crash availability", rows)

    for app, (metrics, report) in results.items():
        membership = metrics.runtime["membership"]
        assert membership["crashes"] == 1
        assert membership["live_silos"] == 3
        # The crash is visible: a non-empty unavailability window ...
        assert report.unavailability_window is not None
        # ... and bounded: throughput returns to pre-fault levels.
        assert report.recovery_time is not None

    eventual_metrics, eventual_report = results["orleans-eventual"]
    txn_metrics, txn_report = results["orleans-transactions"]
    # Both platforms lose volatile state (in-memory grains); the
    # transactional one additionally masks the outage behind retries.
    assert eventual_report.state_loss_events > 0
    assert txn_report.state_loss_events > 0
    assert txn_metrics.runtime["transactions"]["silo_retries"] > 0


@pytest.mark.benchmark(group="f9-fault-tolerance")
def test_f9_rolling_restart_is_invisible(benchmark):
    def run_one():
        return run_fault_scenario("rolling-restart", "orleans-eventual",
                                  rate_scale=0.4)

    metrics, report = benchmark.pedantic(run_one, rounds=1, iterations=1)
    membership = metrics.runtime["membership"]
    print_table("F9: rolling restart (orleans-eventual)", [{
        "drains": membership["drains"],
        "joins": membership["joins"],
        "live_migrations": membership["volatile_handoffs"],
        "state_loss": membership["state_loss_events"],
        "errors": sum(count for _, count in metrics.error_timeline),
        "tx/s": round(metrics.total_throughput, 1),
    }])
    assert membership["drains"] == membership["joins"] == 4
    assert membership["state_loss_events"] == 0
    assert membership["volatile_handoffs"] > 0
    assert sum(count for _, count in metrics.error_timeline) == 0


@pytest.mark.benchmark(group="f9-fault-tolerance")
def test_f9_scale_out_migrates_under_load(benchmark):
    def run_one():
        return run_fault_scenario("scale-out-under-load",
                                  "orleans-eventual")

    metrics, report = benchmark.pedantic(run_one, rounds=1, iterations=1)
    membership = metrics.runtime["membership"]
    print_table("F9: scale-out under load (orleans-eventual)", [{
        "joins": membership["joins"],
        "live_silos": membership["live_silos"],
        "migrations": membership["migrations"],
        "state_loss": membership["state_loss_events"],
        "tx/s": round(metrics.total_throughput, 1),
    }])
    assert membership["joins"] == 2
    assert membership["live_silos"] == 4
    assert membership["migrations"] > 0
    assert membership["state_loss_events"] == 0

"""Fault scenarios on the real actor platforms (acceptance audits).

The stub-app smoke lives in test_scenarios.py; here the silo-crash
scenario runs against the two Orleans platforms at half rate and the
availability report is audited for the properties that motivated the
whole membership refactor: a non-empty unavailability window, a finite
recovery time, surfaced retries on the transactional variant and
state-loss anomalies on the eventual one.
"""

import pytest

from repro.analysis.availability import availability_report
from repro.apps import ALL_APPS, AppConfig
from repro.control import run_scenario
from repro.core.scenarios import get_scenario
from repro.runtime import Environment

SEED = 11


def run_fault_scenario(name, app_name, rate_scale=0.5, seed=SEED,
                       **app_kwargs):
    env = Environment(seed=seed)
    scenario = get_scenario(name)
    app = ALL_APPS[app_name](env, AppConfig(
        silos=scenario.effective_silos,
        cores_per_silo=scenario.effective_cores, **app_kwargs))
    driver = scenario.build_driver(env, app, rate_scale=rate_scale,
                                   data_seed=seed)
    metrics = driver.run()
    return metrics, availability_report(metrics), app


class TestSiloCrash:
    @pytest.fixture(scope="class")
    def eventual(self):
        return run_fault_scenario("silo-crash", "orleans-eventual")

    @pytest.fixture(scope="class")
    def transactions(self):
        return run_fault_scenario("silo-crash", "orleans-transactions")

    @pytest.mark.parametrize("which", ["eventual", "transactions"])
    def test_outage_window_and_recovery(self, which, request):
        metrics, report, app = request.getfixturevalue(which)
        membership = metrics.runtime["membership"]
        assert membership["crashes"] == 1
        assert membership["live_silos"] == 3
        # The crash produces a non-empty unavailability window ...
        assert report.unavailability_window is not None
        assert report.fault_second == 2
        assert report.unavailability_window[0] >= report.fault_second
        # ... and the system recovers to pre-fault throughput.
        assert report.recovery_time is not None
        assert report.pre_fault_tps > 0
        # Failures during the detection window reached the callers.
        assert sum(count for _, count in metrics.error_timeline) > 0
        assert membership["reroutes"] > 0

    def test_eventual_loses_volatile_state(self, eventual):
        metrics, report, app = eventual
        assert report.state_loss_events > 0
        assert metrics.runtime["membership"]["state_loss_events"] == \
            report.state_loss_events

    def test_transactions_surface_retries(self, transactions):
        metrics, report, app = transactions
        txn = metrics.runtime["transactions"]
        assert txn["silo_retries"] > 0
        assert txn["retries"] >= txn["silo_retries"]

    def test_availability_rows_export(self, eventual):
        metrics, report, app = eventual
        assert report.app == "orleans-eventual"
        assert [row["second"] for row in report.rows] == list(
            range(int(metrics.duration)))
        assert any(not row["available"] for row in report.rows)


class TestRollingRestart:
    def test_zero_downtime_and_zero_state_loss(self):
        metrics, report, app = run_fault_scenario(
            "rolling-restart", "orleans-eventual", rate_scale=0.4)
        membership = metrics.runtime["membership"]
        assert membership["drains"] == 4
        assert membership["joins"] == 4
        assert membership["live_silos"] == 4
        # Graceful handoff: every volatile grain migrated with state.
        assert membership["state_loss_events"] == 0
        assert membership["volatile_handoffs"] > 0
        # No call ever failed: the restart is invisible to clients.
        assert sum(count for _, count in metrics.error_timeline) == 0


class TestScaleOut:
    def test_joins_apply_and_capacity_grows(self):
        metrics, report, app = run_fault_scenario(
            "scale-out-under-load", "orleans-eventual", rate_scale=0.5)
        membership = metrics.runtime["membership"]
        assert membership["joins"] == 2
        assert membership["live_silos"] == 4
        assert membership["migrations"] > 0
        assert membership["state_loss_events"] == 0
        applied = [entry for entry
                   in metrics.open_loop["fault_events"]
                   if entry["applied"]]
        assert len(applied) == 2

    def test_scheduled_adds_rescale_the_dataflow_stack(self):
        """The same AddSilo means the same thing whoever issues it: on
        statefun a scheduled join rescales the partition workers, as an
        autoscaler-issued one does, and the audit still holds."""
        run = run_scenario("scale-out-under-load", app="statefun",
                           seed=SEED, duration_scale=0.5)
        events = run.metrics.open_loop["fault_events"]
        assert [(entry["action"], entry["applied"])
                for entry in events] == [("add_silo", True)] * 2
        assert run.app.runtime.rescales == 2
        assert len(run.app.runtime.workers) == 4
        for criterion in ("C1-atomicity", "C3-integrity",
                          "C5-event-ordering",
                          "C6-exactly-once-ingest"):
            assert run.report.results[criterion].violations == 0, \
                criterion
        assert run.metrics.open_loop["final_queue"] == 0

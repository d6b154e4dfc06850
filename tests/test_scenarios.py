"""Smoke tests for the named scenario suite (driven against the stub
app for speed; the bench suite exercises them on the real platforms)."""

import dataclasses

import pytest

from _stub_app import StubApp
from repro import control
from repro.apps import ALL_APPS, AppConfig
from repro.core import (
    BenchmarkDriver,
    DriverConfig,
    HotspotSpec,
    PoissonArrivals,
    Scenario,
    WorkloadConfig,
    audit_app,
)
from repro.core.matrix import MatrixCell, run_cell
from repro.core.scenarios import SCENARIOS, get_scenario, scenario_names
from repro.runtime import Environment

EXPECTED = {"baseline", "flash-sale", "heavy-writer",
            "burst-then-quiesce", "delete-churn", "overload-ramp",
            "silo-crash", "scale-out-under-load", "rolling-restart",
            "return-storm", "payment-flaky", "duplicate-ingest",
            "million-keys", "diurnal", "autoscale-flash-sale"}

FAULT_SCENARIOS = {"silo-crash", "scale-out-under-load",
                   "rolling-restart"}

AUTOSCALED_SCENARIOS = {"diurnal", "autoscale-flash-sale"}


class TestRegistry:
    def test_catalogue_contents(self):
        assert set(scenario_names()) == EXPECTED
        assert set(SCENARIOS) == EXPECTED

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_descriptions_present(self):
        for name in scenario_names():
            assert len(get_scenario(name).description) > 20

    def test_build_config_rejects_bad_scales(self):
        scenario = get_scenario("baseline")
        with pytest.raises(ValueError):
            scenario.build_config(rate_scale=0.0)
        with pytest.raises(ValueError):
            scenario.build_config(duration_scale=-1.0)

    @pytest.mark.parametrize("name", ["baseline", "flash-sale", "diurnal"])
    def test_scenario_configs_are_frozen(self, name):
        scenario = get_scenario(name)
        configs = [scenario.workload, scenario.workload.mix,
                   scenario.hotspot, scenario.autoscaler]
        for config in filter(None, configs):
            field = dataclasses.fields(config)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field, getattr(config, field))

    def test_a_shared_scenario_carries_no_per_run_state(self):
        # The catalogue entry is reused by every run in the process,
        # so a second run must reproduce the first byte for byte.
        cell = MatrixCell("baseline", "orleans-eventual", seed=5,
                          duration_scale=0.15)
        first, second = run_cell(cell), run_cell(cell)
        assert first.status == second.status == "ok"
        assert first.canonical_json == second.canonical_json


def run_scenario(name, seed=3, rate_scale=0.5, duration_scale=0.5):
    scenario = get_scenario(name)
    env = Environment(seed=seed)
    app = StubApp(env)
    driver = scenario.build_driver(env, app, rate_scale=rate_scale,
                                   duration_scale=duration_scale,
                                   data_seed=seed)
    return driver.run(), driver, app


class TestScenarioSmoke:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_runs_end_to_end(self, name):
        metrics, driver, app = run_scenario(name)
        stats = metrics.open_loop
        assert stats["arrivals"] > 0
        assert stats["dispatched"] + stats["shed"] == stats["arrivals"]
        assert stats["completed"] > 0
        assert metrics.total_throughput > 0
        # Every dispatched business transaction records queueing delay
        # separately from service latency.
        assert metrics.ops["checkout"].queue_delay is not None
        assert metrics.timeline

    def test_flash_sale_hotspot_fires(self):
        metrics, driver, app = run_scenario("flash-sale")
        assert driver.sampler.hot_draws > 0
        assert not driver.sampler.active  # cleared after the window

    def test_heavy_writer_mix_dominates(self):
        metrics, driver, app = run_scenario("heavy-writer")
        writes = app.calls["update_price"] + app.calls["delete_product"]
        assert writes > app.calls["checkout"]

    def test_delete_churn_exercises_compensation(self):
        metrics, driver, app = run_scenario("delete-churn",
                                            duration_scale=1.0)
        assert driver.issuer.registry.deletes > 0
        for seller_id, product_id in driver.issuer.registry.live_products():
            assert f"{seller_id}/{product_id}" not in app.deleted

    def test_overload_ramp_builds_queue(self):
        metrics, driver, app = run_scenario("overload-ramp",
                                            rate_scale=1.0,
                                            duration_scale=1.0)
        baseline, _, _ = run_scenario("baseline", rate_scale=1.0,
                                      duration_scale=1.0)
        assert metrics.open_loop["max_queue"] > \
            baseline.open_loop["max_queue"]

    def test_burst_then_quiesce_drains(self):
        metrics, driver, app = run_scenario("burst-then-quiesce")
        assert metrics.open_loop["final_queue"] == 0


class TestFaultScenarios:
    """The stub app declares no scaling host: every membership fault
    must be skipped gracefully and the run must still complete."""

    @pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
    def test_faults_logged_and_skipped_without_cluster(self, name):
        metrics, driver, app = run_scenario(name)
        events = metrics.open_loop["fault_events"]
        assert events, "fault schedule must be installed and logged"
        assert all(not entry["applied"] for entry in events)
        assert metrics.total_throughput > 0

    def test_fault_times_stretch_with_duration_scale(self):
        scenario = get_scenario("silo-crash")
        full = scenario.build_config()
        half = scenario.build_config(duration_scale=0.5)
        assert half.faults.events[0].at == \
            full.faults.events[0].at * 0.5

    def test_fault_schedule_is_a_shared_immutable_value(self):
        scenario = get_scenario("rolling-restart")
        assert scenario.build_config().faults is scenario.faults
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.faults.events = ()
        # Nothing per-run lives on it: a second run logs 8, not 16.
        for _ in range(2):
            metrics, driver, app = run_scenario("rolling-restart")
            assert len(metrics.open_loop["fault_events"]) == 8

    def test_facade_records_every_fault_skipped_without_host(self):
        run = control.run_scenario("rolling-restart", app=StubApp,
                                   seed=3, rate_scale=0.5,
                                   duration_scale=0.5, audit=False)
        assert run.app.scaling_host is None
        events = run.metrics.open_loop["fault_events"]
        assert [entry["action"] for entry in events] == \
            ["drain_silo", "add_silo"] * 4
        assert all(entry["applied"] is False
                   and entry["source"] == "fault"
                   and entry["detail"]
                   == "target does not support this action"
                   for entry in events)
        assert [dict(entry, second=None) for entry in events] == \
            [dict(entry, second=None)
             for entry in run.driver.control.action_log]

    def test_availability_report_without_applied_faults(self):
        from repro.analysis.availability import availability_report
        metrics, driver, app = run_scenario("silo-crash")
        report = availability_report(metrics)
        assert report.fault_second is None
        assert report.unavailability_window is None
        assert all(row["available"] for row in report.rows)


class TestAutoscaledScenarios:
    """The stub app declares no scaling host: the controller still
    samples, but its actions record as skipped, as scheduled faults
    do."""

    @pytest.mark.parametrize("name", sorted(AUTOSCALED_SCENARIOS))
    def test_control_block_exported(self, name):
        metrics, driver, app = run_scenario(name)
        control = metrics.open_loop["control"]
        assert control["enabled"] is True
        assert control["samples"], "controller must have sampled"
        assert all(not entry["applied"]
                   for entry in control["actions"])
        assert metrics.total_throughput > 0

    def test_autoscaler_config_stretches_with_duration_scale(self):
        scenario = get_scenario("autoscale-flash-sale")
        full = scenario.build_config()
        half = scenario.build_config(duration_scale=0.5)
        assert half.autoscaler.interval == \
            full.autoscaler.interval * 0.5
        assert half.autoscaler.window == full.autoscaler.window * 0.5
        # The SLO is a service-time bound, not a schedule: it must not
        # stretch with the experiment clock.
        assert half.autoscaler.slo == full.autoscaler.slo

    def test_legacy_scenarios_export_no_control_block(self):
        metrics, driver, app = run_scenario("baseline")
        assert "control" not in metrics.open_loop


#: A small closed loop: eight workers, half a second measured.
CLOSED_LOOP = Scenario(
    name="closed", description="a small closed loop",
    workload=WorkloadConfig(sellers=3, customers=20, products_per_seller=4),
    population=8, warmup=0.2, duration=0.5, drain=1.0)


class TestClosedLoop:
    """A ``population`` scenario is the closed loop, through the same
    ``run_scenario`` as every open-loop run."""

    @pytest.mark.parametrize("app_name", ["orleans-eventual", "statefun",
                                          "customized-orleans"])
    def test_run_scenario_matches_the_hand_built_assembly(self, app_name):
        seed = 11
        run = control.run_scenario(CLOSED_LOOP, app_name, seed=seed,
                                   silos=2, cores=2, drop_probability=0.02)

        env = Environment(seed=seed)
        app = ALL_APPS[app_name](env, AppConfig(
            silos=2, cores_per_silo=2, drop_probability=0.02))
        driver = BenchmarkDriver(
            env, app, CLOSED_LOOP.workload,
            DriverConfig(workers=8, warmup=0.2, duration=0.5, drain=1.0),
            data_seed=seed)
        metrics = driver.run()
        report = audit_app(app, driver)

        assert isinstance(run.driver, BenchmarkDriver)
        assert run.metrics.summary_rows() == metrics.summary_rows()
        assert run.report.results == report.results
        assert run.env.events_processed == env.events_processed > 0

    def test_duration_scale_stretches_every_phase(self):
        env = Environment(seed=1)
        driver = CLOSED_LOOP.build_driver(env, StubApp(env),
                                          duration_scale=0.5)
        assert driver.config == DriverConfig(
            workers=8, warmup=0.1, duration=0.25, drain=0.5)

    @pytest.mark.parametrize("changes, field", [
        (dict(arrivals=PoissonArrivals), "arrivals and population"),
        (dict(population=None), "arrivals and population"),
        (dict(population=0), "population"),
        (dict(hotspot=HotspotSpec(start=0.0, end=1.0)), "hotspot"),
        (dict(faults=get_scenario("silo-crash").faults), "faults"),
        (dict(autoscaler=get_scenario("diurnal").autoscaler),
         "autoscaler"),
    ])
    def test_a_bad_closed_loop_is_refused(self, changes, field):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(CLOSED_LOOP, **changes)

    def test_a_closed_loop_has_no_schedule_to_build(self):
        with pytest.raises(ValueError, match="no arrivals"):
            CLOSED_LOOP.build_config()

    def test_a_closed_loop_refuses_a_rate_scale(self):
        with pytest.raises(ValueError, match="rate_scale"):
            control.run_scenario(CLOSED_LOOP, StubApp, rate_scale=2.0)

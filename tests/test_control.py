"""Control-plane API tests: the platform_stats contract, typed
actions, the plane over each stack's scaling host, autoscaler
hysteresis and the run_scenario facade.

The autoscaler unit tests drive ``tick()`` by hand against a scripted
plane (no simulation), so each stability guard — hysteresis, cooldown,
bounds, drain exclusion, the dead band — is pinned in isolation; the
end-to-end tests then run the real catalogue scenarios.
"""

import dataclasses
import typing

import pytest

from _stub_app import StubApp
from repro.apps import ALL_APPS, AppConfig
from repro.control import (
    AddSilo,
    Autoscaler,
    AutoscalerConfig,
    ControlPlane,
    CrashSilo,
    DrainSilo,
    FaultEvent,
    FaultSchedule,
    PlatformStats,
    RuntimeSignals,
    SignalWindow,
    SLOTarget,
    run_scenario,
)
from repro.control.actions import execute
from repro.core.scenarios import get_scenario
from repro.runtime import Environment


def _build_app(name, silos=2, cores=1):
    env = Environment(seed=5)
    return env, ALL_APPS[name](env, AppConfig(silos=silos,
                                              cores_per_silo=cores))


def _signals(**overrides):
    """A healthy-cluster snapshot; override what the test varies."""
    base = dict(time=0.0, queue_delay_p95=0.0, queue_delay_mean=0.0,
                queue_samples=10, error_rate=0.0, errors=0,
                completions=50, arrival_rate=100.0, queue_length=0,
                in_flight=4, silos_live=2, silos_draining=0,
                silos_total=2, resident=10, paged=0, messages=100)
    base.update(overrides)
    return RuntimeSignals(**base)


class ScriptedPlane:
    """Duck-typed plane: scripted signals, applied-action recording."""

    def __init__(self, signals):
        self.script = list(signals)
        self.executed = []

    def signals(self):
        return self.script.pop(0)

    def execute(self, action, source="api"):
        self.executed.append((action, source))
        return {"time": 0.0, "action": action.kind,
                "target": action.target, "applied": True,
                "detail": "", "source": source}


class TestPlatformStatsContract:
    """Every stack reports the same typed snapshot — the satellite
    contract replacing four ad-hoc runtime_stats() shapes."""

    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_schema_holds_on_every_stack(self, name):
        env, app = _build_app(name)
        schema = typing.get_type_hints(PlatformStats)
        stats = dataclasses.asdict(app.platform_stats())
        assert list(stats) == [field.name for field
                               in dataclasses.fields(PlatformStats)]
        for field, kind in schema.items():
            assert isinstance(stats[field], kind), field
        assert stats["silos_live"] == 2
        assert stats["silos_draining"] == 0
        assert stats["silos_total"] >= stats["silos_live"]

    def test_stub_app_reports_configured_shape(self):
        env = Environment(seed=1)
        app = StubApp(env)
        stats = app.platform_stats()
        assert stats.silos_live == app.config.silos
        assert stats.resident == 0

    def test_signals_carry_every_platform_field(self):
        platform = {field.name: field.type
                    for field in dataclasses.fields(PlatformStats)}
        signals = {field.name: field.type
                   for field in dataclasses.fields(RuntimeSignals)}
        assert platform.items() <= signals.items()

    def test_legacy_runtime_stats_untouched_by_contract(self):
        env, app = _build_app("orleans-eventual")
        legacy = app.runtime_stats()
        assert "silos_live" not in legacy  # old shape, frozen


class TestSignalWindow:
    def test_p95_and_mean(self):
        window = SignalWindow(window=10.0)
        for index in range(1, 21):
            window.observe_queue_delay(1.0, index / 1000)
        snap = window.snapshot(2.0)
        assert snap["queue_delay_p95"] == pytest.approx(0.019)
        assert snap["queue_delay_mean"] == pytest.approx(0.0105)
        assert snap["queue_samples"] == 20

    def test_old_observations_pruned(self):
        window = SignalWindow(window=1.0)
        window.observe_queue_delay(0.0, 9.9)
        window.observe_arrival(0.0)
        window.observe_outcome(0.0, "failed")
        snap = window.snapshot(5.0)
        assert snap["queue_samples"] == 0
        assert snap["completions"] == 0
        assert snap["arrival_rate"] == 0.0

    def test_rejected_is_not_an_error(self):
        window = SignalWindow(window=5.0)
        for status in ("ok", "rejected", "failed", "aborted"):
            window.observe_outcome(1.0, status)
        snap = window.snapshot(1.0)
        assert snap["errors"] == 2
        assert snap["error_rate"] == pytest.approx(0.5)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            SignalWindow(window=0.0)


class TestActions:
    def test_execute_without_host_records_skip(self):
        record = execute(None, AddSilo(), 3.0, source="autoscaler")
        assert record["applied"] is False
        assert record["detail"] == "target does not support this action"
        assert record["source"] == "autoscaler"
        assert record["time"] == 3.0

    def test_execute_captures_exceptions_as_detail(self):
        class Host:
            def add_silo(self):
                raise ValueError("full")

        record = execute(Host(), AddSilo(), 1.0)
        assert record["applied"] is False
        assert record["detail"] == "ValueError: full"

    def test_execute_applies_and_records_result(self):
        class Host:
            def drain_silo(self, target):
                return f"drained {target}"

        record = execute(Host(), DrainSilo(target="silo-9"), 2.0,
                         source="fault")
        assert record["applied"] is True
        assert record["detail"] == repr("drained silo-9")


class TestPlaneSelection:
    """One plane class; the app declares what it acts on."""

    def test_actor_stacks_get_cluster_plane(self):
        for name in ("orleans-eventual", "orleans-transactions",
                     "customized-orleans"):
            env, app = _build_app(name)
            assert app.scaling_host is app.cluster, name
            record = ControlPlane(env, app).execute(AddSilo("blue"))
            assert record["applied"] is True, name
            assert app.cluster.silos[-1].name == "blue"

    def test_dataflow_stack_gets_statefun_plane(self):
        env, app = _build_app("statefun")
        assert app.scaling_host is app.runtime
        plane = ControlPlane(env, app)
        assert plane.execute(AddSilo())["applied"] is True
        # The dataflow runtime has no crash verb: skipped, not raised.
        crash = plane.execute(CrashSilo("silo-0"))
        assert crash["applied"] is False
        assert crash["detail"] == "target does not support this action"
        env.run(until=1.0)
        assert len(app.runtime.workers) == 3

    def test_stub_gets_null_plane_and_skipped_actions(self):
        env = Environment(seed=1)
        app = StubApp(env)
        assert app.scaling_host is None
        plane = ControlPlane(env, app)
        for action in (AddSilo(), DrainSilo(), CrashSilo("silo-0")):
            record = plane.execute(action, source="autoscaler")
            assert record["applied"] is False
            assert record["target"] == action.target
        assert len(plane.action_log) == 3

    def test_cluster_drain_resolves_to_newest_running_silo(self):
        env, app = _build_app("orleans-eventual", silos=3)
        plane = ControlPlane(env, app)
        record = plane.execute(DrainSilo())
        assert record["applied"] is True
        assert record["target"] == "silo-2"
        # The next untargeted drain skips the silo already draining.
        assert plane.execute(DrainSilo())["target"] == "silo-1"
        # An explicit victim is passed through untouched.
        assert plane.execute(DrainSilo("silo-0"))["target"] == "silo-0"

    def test_dataflow_drain_stays_untargeted(self):
        env, app = _build_app("statefun")
        record = ControlPlane(env, app).execute(DrainSilo())
        assert record["applied"] is True
        assert record["target"] is None

    def test_add_silo_target_names_the_joiner(self):
        env, app = _build_app("orleans-eventual")
        plane = ControlPlane(env, app)
        assert plane.execute(AddSilo())["applied"] is True
        assert app.cluster.silos[-1].name == "silo-2"
        # A name already in use is refused by the cluster and recorded.
        taken = plane.execute(AddSilo("silo-0"))
        assert taken["applied"] is False
        assert taken["detail"].startswith("ValueError")
        assert len(app.cluster.silos) == 3

    def test_signals_snapshot_merges_both_halves(self):
        env, app = _build_app("orleans-eventual")
        window = SignalWindow(window=2.0)
        window.observe_arrival(0.0)
        plane = ControlPlane(env, app, window=window)
        signals = plane.signals()
        assert signals.silos_live == 2
        assert signals.queue_length == 0  # no driver attached
        assert signals.arrival_rate > 0


def _config(**overrides):
    base = dict(slo=SLOTarget(queue_delay_p95=0.1, error_rate=0.05),
                interval=1.0, window=2.0, min_silos=1, max_silos=4,
                breach_ticks=2, clear_ticks=3, scale_down_fraction=0.3,
                cooldown_up=0.0, cooldown_down=0.0)
    base.update(overrides)
    return AutoscalerConfig(**base)


BREACH = dict(queue_delay_p95=0.5)
#: Inside the dead band: no longer breaching, not clear enough to
#: scale down either.
MID_BAND = dict(queue_delay_p95=0.06)
CLEAR = dict(queue_delay_p95=0.01)


class TestAutoscalerGuards:
    def _run(self, config, signal_overrides):
        plane = ScriptedPlane([_signals(**kw) for kw in signal_overrides])
        scaler = Autoscaler(plane, config)
        for tick in range(len(signal_overrides)):
            scaler.tick(float(tick + 1))
        return plane, scaler

    def test_hysteresis_needs_consecutive_breaches(self):
        plane, scaler = self._run(_config(), [BREACH, CLEAR, BREACH,
                                              BREACH])
        assert [a.kind for a, _ in plane.executed] == ["add_silo"]
        assert scaler.samples[1]["action"] is None
        assert scaler.samples[3]["action"] == "add_silo"
        assert plane.executed[0][1] == "autoscaler"

    def test_error_rate_breach_triggers_scale_up(self):
        plane, _ = self._run(_config(), [dict(error_rate=0.2),
                                         dict(error_rate=0.2)])
        assert [a.kind for a, _ in plane.executed] == ["add_silo"]

    def test_cooldown_up_spaces_out_adds(self):
        plane, _ = self._run(_config(cooldown_up=3.0),
                             [BREACH] * 6)
        # Add at t=2; the streak resets, rebuilds by t=4, but the
        # cooldown holds the second add until t=5.
        assert [a.kind for a, _ in plane.executed] == ["add_silo"] * 2

    def test_scale_down_needs_dead_band_and_streak(self):
        plane, _ = self._run(_config(), [MID_BAND] * 6)
        assert plane.executed == []  # inside the dead band: hold
        plane, _ = self._run(_config(), [CLEAR] * 3)
        assert [a.kind for a, _ in plane.executed] == ["drain_silo"]

    def test_scale_down_blocked_by_backlog(self):
        busy = dict(CLEAR, queue_length=5)
        plane, _ = self._run(_config(), [busy] * 6)
        assert plane.executed == []

    def test_no_decision_while_draining(self):
        draining = dict(BREACH, silos_draining=1)
        plane, _ = self._run(_config(), [draining] * 4)
        assert plane.executed == []

    def test_bounds_respected(self):
        at_max = dict(BREACH, silos_live=4)
        plane, _ = self._run(_config(), [at_max] * 4)
        assert plane.executed == []
        at_min = dict(CLEAR, silos_live=1)
        plane, _ = self._run(_config(), [at_min] * 6)
        assert plane.executed == []

    def test_disabled_controller_observes_only(self):
        plane, scaler = self._run(_config(enabled=False), [BREACH] * 4)
        assert plane.executed == []
        assert all(s["action"] is None for s in scaler.samples)
        assert sum(s["breach"] for s in scaler.samples) == 4

    def test_oscillating_signal_produces_no_actions(self):
        """A p95 flapping across the scale-up threshold every sample
        never sustains a streak: the dead band plus hysteresis turn
        oscillation into inaction, not action flapping."""
        plane, _ = self._run(_config(),
                             [BREACH, MID_BAND] * 5)
        assert plane.executed == []

    def test_decisions_are_rng_free(self):
        runs = []
        for _ in range(2):
            plane, scaler = self._run(
                _config(), [BREACH, BREACH, MID_BAND, CLEAR, CLEAR,
                            CLEAR])
            runs.append((scaler.samples,
                         [(a.kind, src) for a, src in plane.executed]))
        assert runs[0] == runs[1]


class TestAutoscalerEndToEnd:
    def test_same_seed_same_action_log(self):
        blocks = []
        for _ in range(2):
            run = run_scenario("autoscale-flash-sale", app="statefun",
                               seed=11, duration_scale=0.5)
            blocks.append(run.metrics.open_loop["control"])
        assert blocks[0]["samples"] == blocks[1]["samples"]
        assert blocks[0]["actions"] == blocks[1]["actions"]

    def test_flash_sale_scales_out_then_back_without_flapping(self):
        run = run_scenario("autoscale-flash-sale", app="statefun",
                           seed=7, duration_scale=0.5)
        control = run.metrics.open_loop["control"]
        kinds = [entry["action"] for entry in control["actions"]
                 if entry["applied"]]
        assert "add_silo" in kinds
        # One excursion: every scale-up precedes every scale-down.
        if "drain_silo" in kinds:
            assert kinds.index("drain_silo") > \
                len(kinds) - 1 - kinds[::-1].index("add_silo")
        assert len(kinds) <= 6
        # The cluster ends back inside its bounds with the SLO held.
        assert control["samples"][-1]["breach"] is False
        assert run.driver.autoscaler is not None
        assert run.driver.control is not None

    def test_faults_and_autoscaler_share_one_action_log(self):
        """A run carrying both issuers has one membership history: in
        sim-time order, both sources, and the driver's fault timeline
        is exactly its ``"fault"`` slice."""
        scenario = dataclasses.replace(
            get_scenario("autoscale-flash-sale"),
            faults=FaultSchedule([FaultEvent(1.0, AddSilo()),
                                  FaultEvent(6.0, CrashSilo("silo-0"))]))
        run = run_scenario(scenario, app="orleans-eventual", seed=7,
                           duration_scale=0.5)
        log = run.driver.control.action_log
        assert {entry["source"] for entry in log} == \
            {"fault", "autoscaler"}
        times = [entry["time"] for entry in log]
        assert times == sorted(times)
        open_loop = run.metrics.open_loop
        assert open_loop["control"]["actions"] == log
        faults = [entry for entry in log if entry["source"] == "fault"]
        assert [entry["action"] for entry in faults] == \
            ["add_silo", "crash_silo"]
        assert [{key: value for key, value in entry.items()
                 if key != "second"}
                for entry in open_loop["fault_events"]] == faults
        assert [entry["second"] for entry
                in open_loop["fault_events"]] == [0, 2]

    def test_burst_then_quiesce_holds_fixed_capacity(self):
        """Retrofit the controller onto the burst-then-quiesce
        scenario on a healthy two-silo cluster: the burst drains fast
        enough that the SLO never breaks, so a stable controller must
        do nothing at the scale-up end and at most unwind capacity it
        never added."""
        scenario = get_scenario("burst-then-quiesce")
        config = AutoscalerConfig(
            slo=SLOTarget(queue_delay_p95=0.5, error_rate=0.5),
            interval=0.25, window=1.0, min_silos=2, max_silos=4,
            breach_ticks=2, clear_ticks=4, cooldown_up=0.5,
            cooldown_down=1.0, rate_per_silo=250.0)
        autoscaled = dataclasses.replace(scenario,
                                         autoscaler=lambda: config)
        run = run_scenario(autoscaled, app="orleans-eventual", seed=3,
                           rate_scale=0.5, duration_scale=0.5)
        control = run.metrics.open_loop["control"]
        assert control["samples"]
        assert not any(s["breach"] for s in control["samples"])
        applied = [entry for entry in control["actions"]
                   if entry["applied"]]
        assert [e["action"] for e in applied if
                e["action"] == "add_silo"] == []


class TestRunScenarioFacade:
    def test_matches_hand_built_driver_exactly(self):
        scenario = get_scenario("baseline")
        env = Environment(seed=3)
        app = StubApp(env)
        driver = scenario.build_driver(env, app, rate_scale=0.5,
                                       duration_scale=0.5, data_seed=3)
        by_hand = driver.run()

        run = run_scenario("baseline", app=StubApp, seed=3,
                           rate_scale=0.5, duration_scale=0.5,
                           audit=False)
        assert run.metrics.open_loop == by_hand.open_loop
        assert run.metrics.summary_rows() == by_hand.summary_rows()
        assert run.metrics.timeline == by_hand.timeline

    def test_unknown_scenario_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("mystery", app=StubApp, audit=False)

    def test_overrides_beat_scenario_pins(self):
        run = run_scenario("silo-crash", app=StubApp, seed=3,
                           rate_scale=0.25, duration_scale=0.25,
                           silos=7, audit=False)
        assert run.app.config.silos == 7
        # Without the override the scenario's pinned shape applies.
        pinned = run_scenario("silo-crash", app=StubApp, seed=3,
                              rate_scale=0.25, duration_scale=0.25,
                              audit=False)
        assert pinned.app.config.silos == \
            get_scenario("silo-crash").effective_silos

    def test_plain_run_has_no_control_plane(self):
        run = run_scenario("baseline", app=StubApp, seed=3,
                           rate_scale=0.25, duration_scale=0.25,
                           audit=False)
        assert run.driver.control is None
        assert run.driver.autoscaler is None
        assert run.report is None

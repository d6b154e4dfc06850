"""E0 — SLO-driven elasticity vs fixed provisioning.

The flash-sale burst from the fault-tolerance suite, re-run as an
elasticity experiment: the ``autoscale-flash-sale`` scenario starts on
two single-core silos and lets the SLO-driven autoscaler ride the
burst, against a fixed four-silo baseline provisioned for the peak
(the controller observes and samples but never acts, so both runs
export the same control-block shape).

Asserted shape, per implementation:

* the elastic run ends inside the SLO — every stack recovers its p95
  by the quiet tail of the run;
* the elastic run spends *strictly fewer* silo-seconds above the ideal
  capacity curve than the peak-provisioned baseline — elasticity must
  actually buy something;
* the controller reacts: on every stack that breaches, the first
  applied ``add_silo`` lands within one second of the first breach;
* the elastic run spends a bounded time out of SLO
  (``MAX_VIOLATION_SECONDS``) — a sim-clock number, exact per seed.
"""

import dataclasses

import pytest
from _harness import APP_ORDER, QUICK, print_table

from repro.analysis.elasticity import elasticity_report
from repro.control import run_scenario
from repro.core.scenarios import get_scenario

SEED = 7
#: Quick mode compresses the experiment clock; time_scaled stretches
#: the controller cadence with it, so the shape is preserved.
DURATION_SCALE = 0.5 if QUICK else 1.0
#: Ceiling on the elastic run's out-of-SLO time at duration_scale=1:
#: full-mode runs measure ~8.3 s on the 2PC stacks, which stay
#: coordination-bound until the post-burst calm; more means the
#: autoscaler got slower to restore the SLO.
MAX_VIOLATION_SECONDS = 12.0


def _fixed_baseline_scenario():
    """autoscale-flash-sale with the controller observing only."""
    scenario = get_scenario("autoscale-flash-sale")
    return dataclasses.replace(
        scenario, name="autoscale-flash-sale-fixed4",
        autoscaler=dataclasses.replace(scenario.autoscaler, enabled=False))


def run_pair(app_name: str):
    """(elastic report, fixed-4 report) for one implementation."""
    elastic_run = run_scenario(
        "autoscale-flash-sale", app=app_name, seed=SEED,
        duration_scale=DURATION_SCALE)
    fixed_run = run_scenario(
        _fixed_baseline_scenario(), app=app_name, seed=SEED,
        duration_scale=DURATION_SCALE, silos=4)
    elastic = elasticity_report(
        elastic_run.metrics.open_loop["control"], app=app_name)
    fixed = elasticity_report(
        fixed_run.metrics.open_loop["control"], app=app_name)
    return elastic, fixed


def run_all():
    return {name: run_pair(name) for name in APP_ORDER}


@pytest.mark.benchmark(group="e0-elasticity")
def test_e0_elasticity(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name in APP_ORDER:
        for mode, report in zip(("elastic", "fixed-4"), results[name]):
            rows.append({"mode": mode, **report.summary_row()})
    print_table("E0: elastic vs peak-provisioned flash sale", rows)

    interval = 0.25 * DURATION_SCALE
    for name, (elastic, fixed) in results.items():
        # The burst must end inside the SLO on every stack.
        assert elastic.recovered, f"{name}: run ended out of SLO"
        assert (elastic.slo_violation_seconds / DURATION_SCALE
                <= MAX_VIOLATION_SECONDS), \
            f"{name}: {elastic.slo_violation_seconds}s out of SLO"
        # Elasticity must beat peak provisioning on wasted capacity —
        # strictly, or the controller is not earning its keep.
        assert (elastic.over_provisioned_area
                < fixed.over_provisioned_area), \
            f"{name}: over-area {elastic.over_provisioned_area} !< " \
            f"fixed {fixed.over_provisioned_area}"
        assert elastic.silo_seconds < fixed.silo_seconds, name
        # When the SLO broke, the controller must have reacted fast:
        # hysteresis (2 ticks) + one sample of slack.
        if elastic.slo_violation_seconds > 0:
            assert elastic.scaling_lag is not None, \
                f"{name}: breached but never scaled"
            assert elastic.scaling_lag <= 4 * interval, \
                f"{name}: scaling lag {elastic.scaling_lag}"
            assert elastic.scale_ups >= 1
        # The observing baseline must never act.
        assert fixed.scale_ups == 0 and fixed.scale_downs == 0
        assert fixed.peak_silos == fixed.min_silos == 4

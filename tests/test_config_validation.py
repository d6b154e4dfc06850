"""``WorkloadConfig``, ``TransactionMix``, ``AppConfig``, the driver
configs and the arrival processes validate themselves at
construction."""

import dataclasses

import pytest

from repro.apps import AppConfig
from repro.control import run_scenario
from repro.core.driver import DriverConfig, OpenLoopConfig
from repro.core.driver.arrivals import (
    ConstantRate,
    PhasedArrivals,
    PoissonArrivals,
    RampArrivals,
    SinusoidArrivals,
)
from repro.core.scenarios import SCENARIOS
from repro.core.workload.config import TransactionMix, WorkloadConfig

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("field, value", [
    ("sellers", 0),
    ("customers", 0),
    ("products_per_seller", 0),
    ("reserve_fraction", -1.0),
    ("reserve_fraction", float("inf")),
    ("zipf_s", -0.1),
    ("duplicate_submit_probability", -0.1),
    ("duplicate_submit_probability", 1.5),
])
def test_workload_out_of_range_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        WorkloadConfig(**{field: value})


WORKLOAD_FLOATS = [field.name for field in dataclasses.fields(WorkloadConfig)
                   if field.type == "float"]


@pytest.mark.parametrize("field", WORKLOAD_FLOATS)
def test_workload_nan_is_rejected_in_every_float_field(field):
    with pytest.raises(ValueError, match=field):
        WorkloadConfig(**{field: NAN})


MIX_WEIGHTS = [field.name for field in dataclasses.fields(TransactionMix)]


@pytest.mark.parametrize("field", MIX_WEIGHTS)
@pytest.mark.parametrize("weight", [-5.0, NAN, INF])
def test_transaction_mix_rejects_a_negative_nan_or_infinite_weight(
        field, weight):
    # -5 used to normalise into a negative share, NaN into all-NaN
    # shares (every draw fell through to checkout), inf into a NaN one.
    with pytest.raises(ValueError, match=field):
        TransactionMix(**{field: weight})


@pytest.mark.parametrize("build, field", [
    (lambda value: DriverConfig(warmup=value), "warmup"),
    (lambda value: DriverConfig(duration=value), "duration"),
    (lambda value: DriverConfig(drain=value), "drain"),
    (lambda value: OpenLoopConfig(ConstantRate(1.0), warmup=value),
     "warmup"),
    (lambda value: OpenLoopConfig(ConstantRate(1.0), duration=value),
     "duration"),
    (lambda value: OpenLoopConfig(ConstantRate(1.0), drain=value),
     "drain"),
    (lambda value: ConstantRate(value), "rate"),
    (lambda value: PoissonArrivals(value), "rate"),
    (lambda value: PhasedArrivals([(value, ConstantRate(1.0))]),
     "duration"),
    (lambda value: RampArrivals(value, 1.0, 1.0), "start_rate"),
    (lambda value: RampArrivals(1.0, value, 1.0), "end_rate"),
    (lambda value: RampArrivals(1.0, 1.0, value), "ramp_duration"),
    (lambda value: SinusoidArrivals(value), "base_rate"),
    (lambda value: SinusoidArrivals(1.0, period=value), "period"),
])
@pytest.mark.parametrize("value", [NAN, INF])
def test_timing_inputs_reject_nan_and_infinity(build, field, value):
    # DriverConfig(duration=inf) used to run each closed-loop worker
    # `while env.now < inf` and env.run(until=inf) without end.
    with pytest.raises(ValueError, match=field):
        build(value)


#: Every number of the deployment: ``costs`` validates itself, and the
#: two ablation switches are plain flags.
APP_NUMBERS = [field.name for field in dataclasses.fields(AppConfig)
               if field.type in ("int", "float", "int | None")]


@pytest.mark.parametrize("field, value", [
    ("silos", 0),
    ("cores_per_silo", 0),
    ("drop_probability", -0.1),
    ("drop_probability", 1.1),
    ("approval_rate", -0.1),
    ("approval_rate", 1.5),
    ("checkpoint_interval", -0.5),
    ("activation_limit", 0),
] + [(field, NAN) for field in APP_NUMBERS])
def test_app_config_rejects_out_of_range_or_nan_values(field, value):
    with pytest.raises(ValueError, match=field):
        AppConfig(**{field: value})


@pytest.mark.parametrize("app", ["orleans-eventual", "statefun",
                                 "orleans-transactions"])
def test_a_bad_scenario_override_fails_before_the_run(app):
    # An approval rate of 1.5 used to ingest, then fail the run at its
    # first payment.
    with pytest.raises(ValueError, match="approval_rate"):
        run_scenario("baseline", app, approval_rate=1.5)


def test_float_fields_are_all_covered():
    assert set(WORKLOAD_FLOATS) == {
        "reserve_fraction", "zipf_s", "duplicate_submit_probability"}
    assert set(APP_NUMBERS) == {
        "silos", "cores_per_silo", "drop_probability", "approval_rate",
        "checkpoint_interval", "activation_limit"}


def test_every_construction_in_the_repository_still_builds():
    WorkloadConfig()
    AppConfig()
    # Boundaries: zeros, ones, equal ends of every range.
    WorkloadConfig(sellers=1, customers=1, products_per_seller=1,
                   reserve_fraction=0.0, zipf_s=0.0,
                   duplicate_submit_probability=1.0)
    TransactionMix(**{**dict.fromkeys(MIX_WEIGHTS, 0.0), "checkout": 1.0})
    AppConfig(silos=1, cores_per_silo=1, drop_probability=1.0,
              approval_rate=0.0, checkpoint_interval=0.0,
              activation_limit=1)
    # Every catalogue scenario's workload (the matrix and the ledger's
    # open-loop cells); its deployment is built in
    # tests/test_statefun_config.py and tests/test_actors.py.
    for scenario in SCENARIOS.values():
        assert scenario.workload.sellers >= 1, scenario.name
    # The examples, the bench harness and the CLI defaults.
    for sellers, customers, products in ((6, 48, 6), (10, 100, 10),
                                         (3, 30, 5), (2, 60, 8)):
        WorkloadConfig(sellers=sellers, customers=customers,
                       products_per_seller=products)
    # The ledger's closed-loop peak-custom cell.
    WorkloadConfig(sellers=6, customers=64, products_per_seller=8,
                   zipf_s=1.0, mix=TransactionMix(
                       checkout=30.0, price_update=40.0,
                       product_delete=8.0, update_delivery=7.0,
                       dashboard=15.0))
    # benchmarks/bench_a1_txn_ablation.py and bench_a2_checkpoint.py
    for locking in (True, False):
        for two_phase in (True, False):
            AppConfig(enable_locking=locking,
                      enable_two_phase_commit=two_phase)
    for interval in (0.05, 0.25, 1.0, 0.0):
        AppConfig(checkpoint_interval=interval)

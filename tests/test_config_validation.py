"""``WorkloadConfig`` and ``AppConfig`` validate themselves at
construction."""

import dataclasses

import pytest

from repro.apps import AppConfig
from repro.control import run_scenario
from repro.core.scenarios import SCENARIOS
from repro.core.workload.config import TransactionMix, WorkloadConfig

NAN = float("nan")


@pytest.mark.parametrize("field, value", [
    ("sellers", 0),
    ("customers", 0),
    ("products_per_seller", 0),
    ("initial_stock", -1),
    ("reserve_fraction", -1.0),
    ("reserve_fraction", float("inf")),
    ("zipf_s", -0.1),
    ("min_cart_items", 0),
    ("min_quantity", 0),
    ("min_price_cents", 0),
    ("voucher_probability", -0.1),
    ("voucher_probability", 1.5),
    ("external_platforms", 0),
    ("external_shops", 0),
    ("duplicate_submit_probability", -0.1),
    ("duplicate_submit_probability", 1.5),
])
def test_workload_out_of_range_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        WorkloadConfig(**{field: value})


@pytest.mark.parametrize("low, high", [
    ("min_cart_items", "max_cart_items"),
    ("min_quantity", "max_quantity"),
    ("min_price_cents", "max_price_cents"),
])
def test_workload_inverted_range_is_rejected(low, high):
    # min 101 > max 100 used to construct and then divide by zero in
    # the first generated product (quantities: fail inside randint).
    with pytest.raises(ValueError, match=high):
        WorkloadConfig(**{low: 101, high: 100})


WORKLOAD_FLOATS = [field.name for field in dataclasses.fields(WorkloadConfig)
                   if field.type == "float"]


@pytest.mark.parametrize("field", WORKLOAD_FLOATS)
def test_workload_nan_is_rejected_in_every_float_field(field):
    with pytest.raises(ValueError, match=field):
        WorkloadConfig(**{field: NAN})


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
        "reserve_fraction", "zipf_s", "voucher_probability",
        "duplicate_submit_probability"}
    assert set(APP_NUMBERS) == {
        "silos", "cores_per_silo", "drop_probability", "approval_rate",
        "checkpoint_interval", "activation_limit"}


def test_every_construction_in_the_repository_still_builds():
    WorkloadConfig()
    AppConfig()
    # Boundaries: zeros, ones, equal ends of every range.
    WorkloadConfig(sellers=1, customers=1, products_per_seller=1,
                   initial_stock=0, reserve_fraction=0.0, zipf_s=0.0,
                   min_cart_items=1, max_cart_items=1, min_quantity=1,
                   max_quantity=1, min_price_cents=1, max_price_cents=1,
                   voucher_probability=1.0, external_platforms=1,
                   external_shops=1, duplicate_submit_probability=1.0)
    AppConfig(silos=1, cores_per_silo=1, drop_probability=1.0,
              approval_rate=0.0, checkpoint_interval=0.0,
              activation_limit=1)
    # Every catalogue scenario's workload (the matrix and the ledger's
    # open-loop cells); its deployment is built in
    # tests/test_statefun_config.py and tests/test_actors.py.
    for scenario in SCENARIOS.values():
        assert scenario.workload().sellers >= 1, scenario.name
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

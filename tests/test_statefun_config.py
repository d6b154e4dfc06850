"""``StatefunConfig`` validates itself at construction."""

import dataclasses

import pytest

from repro.apps import AppConfig, StatefunApp
from repro.core.scenarios import SCENARIOS
from repro.dataflow import StatefunConfig
from repro.runtime import Environment

NAN = float("nan")


@pytest.mark.parametrize("field, value", [
    ("partitions", 0),
    ("checkpoint_interval", -0.5),
    ("max_resident_addresses", 0),
])
def test_out_of_range_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        StatefunConfig(**{field: value})


@pytest.mark.parametrize(
    "field", [field.name for field in dataclasses.fields(StatefunConfig)])
def test_nan_is_rejected_in_every_field(field):
    with pytest.raises(ValueError, match=field):
        StatefunConfig(**{field: NAN})


def test_every_construction_in_the_repository_still_builds():
    StatefunConfig()
    # Zero is a legal interval (no checkpoints); one a legal partition
    # count and budget; None no budget.
    StatefunConfig(partitions=1, checkpoint_interval=0.0,
                   max_resident_addresses=1)
    # tests/test_statefun_recovery.py and tests/test_dataflow.py
    StatefunConfig(partitions=2, checkpoint_interval=0.2)
    StatefunConfig(checkpoint_interval=0.0, partitions=1)
    StatefunConfig(checkpoint_interval=0.1)
    StatefunConfig(partitions=4)
    # apps/statefun_app.py, on every catalogue scenario's shape (the
    # bench harness and examples/failure_recovery.py build it too)
    for scenario in SCENARIOS.values():
        app = StatefunApp(Environment(seed=1), AppConfig(
            silos=scenario.effective_silos,
            cores_per_silo=scenario.effective_cores,
            activation_limit=scenario.activation_limit))
        assert len(app.runtime.workers) == scenario.effective_silos

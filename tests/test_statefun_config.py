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
    ("delivery_latency", -0.001),
    ("envelope_cpu", -0.001),
    ("cross_partition_latency", -0.001),
    ("cross_partition_cpu", -0.001),
    ("checkpoint_interval", -0.5),
    ("checkpoint_sync", -0.02),
    ("recovery_pause", -0.25),
    ("rescale_pause", -0.08),
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
    # Zero is a legal latency, cost, interval (no checkpoints) and
    # pause; one a legal partition count and budget; None no budget.
    StatefunConfig(partitions=1, delivery_latency=0.0,
                   envelope_cpu=0.0, cross_partition_latency=0.0,
                   cross_partition_cpu=0.0, checkpoint_interval=0.0,
                   checkpoint_sync=0.0, recovery_pause=0.0,
                   rescale_pause=0.0, max_resident_addresses=1)
    # benchmarks/bench_a2_checkpoint.py
    for interval in (0.05, 0.25, 1.0, 0.0):
        StatefunConfig(partitions=2, checkpoint_interval=interval,
                       checkpoint_sync=0.02)
    # examples/failure_recovery.py and tests/test_statefun_recovery.py
    StatefunConfig(partitions=2, checkpoint_interval=0.2,
                   recovery_pause=0.1)
    # tests/test_dataflow.py and tests/test_event_budgets.py
    StatefunConfig(checkpoint_interval=0.0, partitions=1,
                   envelope_cpu=0.01, delivery_latency=0.0)
    StatefunConfig(checkpoint_interval=0.1, checkpoint_sync=0.05)
    StatefunConfig(partitions=4, recovery_pause=0.3)
    # apps/statefun_app.py, on every catalogue scenario's shape
    for scenario in SCENARIOS.values():
        app = StatefunApp(Environment(seed=1), AppConfig(
            silos=scenario.effective_silos,
            cores_per_silo=scenario.effective_cores,
            activation_limit=scenario.activation_limit))
        assert len(app.runtime.workers) == scenario.effective_silos

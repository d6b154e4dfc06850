"""The statefun runtime's settings are validated at construction.

The runtime reads its deployment from the app's ``AppConfig``: one
partition worker per ``silos``, the ``checkpoint_interval``, and a
per-worker budget of resident addresses in ``activation_limit``.  Each
case is named by the runtime's own setting and checks that a bad value
is rejected, naming the ``AppConfig`` field, before any worker exists.
"""

import pytest

from repro.apps import AppConfig, StatefunApp
from repro.core.scenarios import SCENARIOS
from repro.dataflow import StatefunRuntime
from repro.runtime import Environment

NAN = float("nan")

#: Runtime setting -> the ``AppConfig`` field that holds it.
SETTINGS = {
    "partitions": "silos",
    "checkpoint_interval": "checkpoint_interval",
    "max_resident_addresses": "activation_limit",
}


def build_runtime(**config_kwargs):
    return StatefunRuntime(Environment(seed=1), AppConfig(**config_kwargs))


@pytest.mark.parametrize("setting, value", [
    ("partitions", 0),
    ("checkpoint_interval", -0.5),
    ("max_resident_addresses", 0),
])
def test_out_of_range_value_is_rejected(setting, value):
    field = SETTINGS[setting]
    with pytest.raises(ValueError, match=field):
        build_runtime(**{field: value})


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_nan_is_rejected_in_every_field(setting):
    field = SETTINGS[setting]
    with pytest.raises(ValueError, match=field):
        build_runtime(**{field: NAN})


def test_every_construction_in_the_repository_still_builds():
    # Zero is a legal interval (no checkpoints); one a legal partition
    # count and budget; None no budget.
    runtime = build_runtime(silos=1, checkpoint_interval=0.0,
                            activation_limit=1)
    assert len(runtime.workers) == 1
    # tests/test_statefun_recovery.py, tests/test_dataflow.py and
    # benchmarks/bench_a2_checkpoint.py
    build_runtime(silos=2, checkpoint_interval=0.2)
    build_runtime(checkpoint_interval=0.1)
    build_runtime(silos=4)
    for interval in (0.05, 0.25, 1.0, 0.0):
        build_runtime(checkpoint_interval=interval)
    # apps/statefun_app.py, on every catalogue scenario's shape (the
    # bench harness and examples/failure_recovery.py build it too)
    for scenario in SCENARIOS.values():
        app = StatefunApp(Environment(seed=1), AppConfig(
            silos=scenario.effective_silos,
            cores_per_silo=scenario.effective_cores,
            drop_probability=scenario.drop_probability,
            approval_rate=scenario.approval_rate,
            activation_limit=scenario.activation_limit))
        assert len(app.runtime.workers) == scenario.effective_silos

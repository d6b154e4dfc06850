"""The cost model: its defaults, its validation, the layers it reaches,
and a guard that keeps costs from scattering into the layers again."""

import ast
import dataclasses
import pathlib

import pytest

import repro.costs
from repro.apps import ALL_APPS, AppConfig
from repro.costs import CostModel
from repro.runtime import Environment

#: The values every layer charged before the model gathered them.
DEFAULTS = {
    "local_latency": 0.00005,
    "remote_latency": 0.0004,
    "remote_jitter": 0.0002,
    "control_latency": 0.0003,
    "delivery_latency": 0.0002,
    "cross_partition_latency": 0.0004,
    "replication_lag": 0.0005,
    "participant_log_latency": 0.0005,
    "coordinator_log_latency": 0.0005,
    "grain_cpu": 0.0001,
    "function_cpu": 0.0001,
    "envelope_cpu": 0.00006,
    "cross_partition_cpu": 0.00008,
    "checkpoint_sync": 0.02,
    "recovery_pause": 0.25,
    "rescale_pause": 0.08,
}
FIELDS = [field.name for field in dataclasses.fields(CostModel)]


def test_defaults_are_the_layers_former_literals():
    assert dataclasses.asdict(CostModel()) == DEFAULTS
    assert FIELDS == list(DEFAULTS)


@pytest.mark.parametrize("value", [-0.001, float("nan")],
                         ids=["negative", "nan"])
@pytest.mark.parametrize("field", FIELDS)
def test_negative_or_nan_cost_is_rejected(field, value):
    """Rejected where the model is built: no layer checks a cost again,
    and a negative or NaN delay would run the clock backwards."""
    with pytest.raises(ValueError, match=field):
        CostModel(**{field: value})


def test_zero_costs_and_frozen():
    costs = CostModel(**dict.fromkeys(FIELDS, 0.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        costs.grain_cpu = 1.0  # type: ignore[misc]


def test_one_app_config_reaches_every_layer_that_charges_it():
    costs = CostModel(replication_lag=0.007, grain_cpu=0.003)
    config = AppConfig(costs=costs)
    apps = {name: ALL_APPS[name](Environment(seed=1), config)
            for name in ("orleans-eventual", "orleans-transactions",
                         "statefun", "customized-orleans")}
    # Every runtime reads the app's own config, costs included.
    for name in ("orleans-eventual", "orleans-transactions",
                 "customized-orleans"):
        assert apps[name].cluster.config is config, name
        assert apps[name].cluster.costs is costs, name
    for name in ("orleans-transactions", "customized-orleans"):
        assert apps[name].runner.config is config, name
        assert apps[name].runner.costs is costs, name
    assert apps["statefun"].runtime.config is config
    assert apps["statefun"].runtime.costs is costs
    broker = apps["orleans-eventual"].cluster.broker
    assert (broker.base_latency, broker.jitter) == (0.007, 3 * 0.007)
    assert apps["customized-orleans"].kv.replication_lag == 0.007


#: Suffixes of a cost's name; a jitter may be retry policy
#: (``BACKOFF_JITTER``).
COST_SUFFIXES = ("_latency", "_cpu", "_pause")


def test_no_class_outside_the_cost_model_defines_a_cost():
    """Every latency, CPU charge and pause is a ``CostModel`` field or a
    module constant: no class body under ``src/repro`` (a config field,
    a per-class override) defines ``cpu_cost`` or a name ending in
    ``_latency``, ``_cpu`` or ``_pause``."""
    model = pathlib.Path(repro.costs.__file__)
    package = model.parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == model:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    targets = statement.targets
                elif isinstance(statement, ast.AnnAssign):
                    targets = [statement.target]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(package)}:{statement.lineno} "
                    f"{node.name}.{target.id}"
                    for target in targets
                    if isinstance(target, ast.Name)
                    and (target.id == "cpu_cost"
                         or target.id.endswith(COST_SUFFIXES))]
    assert offenders == []

"""One entry point for running a named scenario end to end.

Before this facade, three call sites each hand-assembled the same
sequence — seed an :class:`~repro.runtime.Environment`, build the app
with the scenario-pinned :class:`~repro.config.AppConfig`, build the
driver, run, audit — in slightly divergent ways: the scenario CLI,
``matrix.run_cell``, and every test that wanted a scenario run.
:func:`run_scenario` is now that sequence, exactly once; the CLI and
matrix call it, and direct driver construction is deprecated for
scenario runs (see ``docs/scenarios.md``).  Determinism is preserved
by construction: the facade performs the identical steps in the
identical order, so a cell run through it is byte-identical to one
assembled by hand.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import MarketplaceApp
    from repro.core.criteria import CriteriaReport
    from repro.core.driver.metrics import RunMetrics
    from repro.core.driver.open_loop import OpenLoopDriver
    from repro.core.scenarios import Scenario
    from repro.runtime import Environment


@dataclasses.dataclass
class ScenarioRun:
    """Everything one scenario execution produced, in one place."""

    scenario: "Scenario"
    env: "Environment"
    app: "MarketplaceApp"
    driver: "OpenLoopDriver"
    metrics: "RunMetrics"
    report: "CriteriaReport"


def run_scenario(scenario: "Scenario | str",
                 app: str | typing.Callable = "orleans-eventual",
                 *,
                 seed: int = 42,
                 rate_scale: float = 1.0,
                 duration_scale: float = 1.0,
                 silos: int | None = None,
                 cores: int | None = None,
                 drop_probability: float | None = None,
                 approval_rate: float | None = None,
                 activation_limit: int | None = None,
                 audit: bool = True) -> ScenarioRun:
    """Run one named scenario against one app, end to end.

    ``scenario`` is a catalogue name or a :class:`Scenario`; ``app`` is
    a registry name or any ``(env, AppConfig) -> app`` callable (tests
    pass stub classes).  The keyword overrides mirror the CLI flags:
    ``None`` means "use the scenario's pinned value" — a fault scenario
    may pin the cluster shape it was designed for; explicit arguments
    still win.
    """
    # Imported here, not at module level: the scenario catalogue and
    # the app stacks both import `repro.control` themselves, so the
    # facade resolves them at call time to keep the package acyclic.
    from repro.apps import ALL_APPS, AppConfig
    from repro.core.criteria import audit_app
    from repro.core.scenarios import get_scenario
    from repro.runtime import Environment

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    factory = ALL_APPS[app] if isinstance(app, str) else app
    env = Environment(seed=seed)
    config = AppConfig(
        silos=silos if silos is not None else scenario.effective_silos,
        cores_per_silo=(cores if cores is not None
                        else scenario.effective_cores),
        approval_rate=(approval_rate if approval_rate is not None
                       else scenario.approval_rate),
        drop_probability=(drop_probability
                          if drop_probability is not None
                          else scenario.drop_probability),
        activation_limit=(activation_limit
                          if activation_limit is not None
                          else scenario.activation_limit))
    built = factory(env, config)
    driver = scenario.build_driver(
        env, built, rate_scale=rate_scale,
        duration_scale=duration_scale, data_seed=seed)
    metrics = driver.run()
    report = audit_app(built, driver) if audit else None
    return ScenarioRun(scenario=scenario, env=env, app=built,
                       driver=driver, metrics=metrics, report=report)

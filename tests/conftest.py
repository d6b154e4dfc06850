"""Fixtures that set a deployment or workload constant for one test."""

import pytest


@pytest.fixture
def instant_failure_detection(monkeypatch):
    """A crashed silo leaves the membership view at once."""
    monkeypatch.setattr("repro.actors.cluster.FAILURE_DETECTION_DELAY", 0.0)


@pytest.fixture
def no_txn_retries(monkeypatch):
    """A vetoed or failed transaction settles on its first attempt."""
    monkeypatch.setattr("repro.txn.coordinator.MAX_RETRIES", 0)


@pytest.fixture
def workload_constants(monkeypatch):
    """Set ``repro.core.workload.config`` constants (``INITIAL_STOCK``,
    ``PRICE_CENTS``, ...) by keyword; the dataset and the issuer read
    them at use."""
    def set_constants(**values):
        for name, value in values.items():
            monkeypatch.setattr(f"repro.core.workload.config.{name}",
                                value)
    return set_constants

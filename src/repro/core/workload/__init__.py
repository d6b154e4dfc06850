"""Workload definition: configuration, data generation, key selection."""

from repro.core.workload.config import TransactionMix, WorkloadConfig
from repro.core.workload.dataset import Dataset
from repro.core.workload.distributions import (
    ProductKeyRegistry,
    ZipfSampler,
)
from repro.core.workload.inputs import InputCoordinator

__all__ = [
    "Dataset",
    "InputCoordinator",
    "ProductKeyRegistry",
    "TransactionMix",
    "WorkloadConfig",
    "ZipfSampler",
]

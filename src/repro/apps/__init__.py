"""The four Online Marketplace implementations.

Each app wires the shared business logic of :mod:`repro.marketplace`
onto a different data management stack:

* :class:`OrleansEventualApp` — virtual actors, eventual consistency
  (fire-and-forget side effects, unordered events, no transactions).
* :class:`OrleansTransactionsApp` — the same actors under distributed
  ACID transactions (2PL + 2PC).
* :class:`StatefunApp` — dataflow stateful functions with exactly-once
  processing (checkpoint/replay).
* :class:`CustomizedOrleansApp` — transactions plus a single-version
  indexed SQL table whose two dashboard reads run in one kernel step, a
  causally-replicated KV store for product data, and causally-ordered
  event topics.
"""

from repro.apps.base import MarketplaceApp, OperationResult
from repro.apps.customized import CustomizedOrleansApp
from repro.apps.orleans_eventual import OrleansEventualApp
from repro.apps.orleans_transactions import OrleansTransactionsApp
from repro.apps.statefun_app import StatefunApp
from repro.config import AppConfig

ALL_APPS = {
    "orleans-eventual": OrleansEventualApp,
    "orleans-transactions": OrleansTransactionsApp,
    "statefun": StatefunApp,
    "customized-orleans": CustomizedOrleansApp,
}

__all__ = [
    "ALL_APPS",
    "AppConfig",
    "CustomizedOrleansApp",
    "MarketplaceApp",
    "OperationResult",
    "OrleansEventualApp",
    "OrleansTransactionsApp",
    "StatefunApp",
]

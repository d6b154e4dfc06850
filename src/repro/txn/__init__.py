"""Distributed ACID transactions over grains (Orleans Transactions).

The paper's *Orleans Transactions* implementation provides all-or-nothing
atomicity and concurrency control across grains, at "considerable
overhead".  This package reproduces both the guarantees and the cost
sources: strict two-phase locking with wait-die deadlock avoidance,
two-phase commit with durable log writes at every participant, and
abort/retry with the original priority preserved (so retried
transactions eventually win).
"""

from repro.txn.context import TransactionContext, TransactionStatus
from repro.txn.coordinator import (
    Transaction,
    TransactionRunner,
    TxnStats,
)
from repro.txn.errors import TransactionAborted, TransactionError
from repro.txn.locks import LockManager, LockMode
from repro.txn.participant import TransactionalGrain, TransactionParticipant

__all__ = [
    "LockManager",
    "LockMode",
    "Transaction",
    "TransactionAborted",
    "TransactionContext",
    "TransactionError",
    "TransactionParticipant",
    "TransactionRunner",
    "TransactionStatus",
    "TransactionalGrain",
    "TxnStats",
]

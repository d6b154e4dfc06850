"""MVCC storage engine with snapshot isolation.

The repository's stand-in for PostgreSQL: the paper's *Customized
Orleans* implementation offloads consistent querying (the seller
dashboard's two queries must observe the same snapshot) to a relational
store.  This engine provides multi-version storage, snapshot-isolated
transactions with first-committer-wins conflict detection, secondary
indexes exact at the current snapshot, and predicates that are
conjunctions of :func:`eq` / :func:`isin` column conditions, tested
inline by one loop per scan.
"""

from repro.sqlstore.engine import (
    MVCCEngine,
    SerializationError,
    Snapshot,
    Transaction,
)
from repro.sqlstore.query import Predicate, and_, eq, isin
from repro.sqlstore.table import Row, Table, UniqueViolation

__all__ = [
    "MVCCEngine",
    "Predicate",
    "Row",
    "SerializationError",
    "Snapshot",
    "Table",
    "Transaction",
    "UniqueViolation",
    "and_",
    "eq",
    "isin",
]

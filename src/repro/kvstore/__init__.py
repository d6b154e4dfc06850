"""In-memory key-value store with primary-secondary replication.

This is the repository's stand-in for the Redis deployment used by the
paper's *Customized Orleans* implementation: product updates are written
to a primary and replicated asynchronously to secondaries; causal
sessions let carts read product data without going backwards in causal
time.  The primary is the only writer, so a version is the primary's
write sequence number and "has seen" is ``>=``.
"""

from repro.kvstore.replication import CausalSession, Replica, ReplicatedKV
from repro.kvstore.store import KVStore, Versioned

__all__ = [
    "CausalSession",
    "KVStore",
    "Replica",
    "ReplicatedKV",
    "Versioned",
]

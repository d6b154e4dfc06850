"""Primary-secondary replication with primary and causal read modes.

The primary accepts all writes and streams them to replicas with a
configurable replication lag.  Readers may attach a
:class:`CausalSession`; reads through a session never go backwards in
causal time — if a replica has not yet caught up with everything the
session has observed, the read blocks until it has (the mechanism the
paper offloads to a Redis primary-secondary deployment).
"""

from __future__ import annotations

import typing

from repro.kvstore.store import KVStore, Versioned

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class CausalSession:
    """Tracks the causal frontier a client has observed.

    Guarantees provided when every read/write goes through the session:
    *read-your-writes* and *monotonic reads* — together these give the
    causal replication semantics prescribed for Product -> Cart.
    ``frontier`` is the newest primary write sequence number seen.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.frontier = 0

    def observe(self, version: int) -> None:
        if version > self.frontier:
            self.frontier = version


class Replica:
    """A read-only secondary that applies the primary's stream in order."""

    def __init__(self, env: "Environment", name: str) -> None:
        self.env = env
        self.name = name
        self.store = KVStore(env, name)
        #: Newest primary write sequence number applied here.
        self.applied = 0
        self._waiters: list[tuple[int, object]] = []

    def apply(self, key: str, entry: Versioned) -> None:
        """Apply one replicated write."""
        self.store.put_now(key, entry.value, entry.version)
        if entry.version > self.applied:
            self.applied = entry.version
        # Wake any causal readers whose frontier is now covered.
        still_waiting = []
        for frontier, event in self._waiters:
            if self.applied >= frontier:
                event.succeed()
            else:
                still_waiting.append((frontier, event))
        self._waiters = still_waiting

    def wait_for(self, frontier: int):
        """Process helper: block until this replica covers ``frontier``."""
        if self.applied >= frontier:
            return
            yield  # pragma: no cover - makes this a generator
        event = self.env.event()
        self._waiters.append((frontier, event))
        yield event


class ReplicatedKV:
    """A primary plus N secondaries with asynchronous replication.

    Parameters
    ----------
    replication_lag:
        One-way delay before a primary write is applied on a secondary.
    replicas:
        Number of secondaries.
    """

    def __init__(self, env: "Environment", name: str,
                 replicas: int = 1,
                 replication_lag: float = 0.002) -> None:
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        self.env = env
        self.name = name
        self.replication_lag = replication_lag
        self.primary = KVStore(env, f"{name}-primary")
        self.replicas = [Replica(env, f"{name}-replica{i}")
                         for i in range(replicas)]
        self._version = 0
        self._rng = env.rng(f"kv:{name}")
        self.causal_waits = 0

    # ------------------------------------------------------------------
    # writes (always via the primary)
    # ------------------------------------------------------------------
    def put(self, key: str, value: object,
            session: CausalSession | None = None):
        """Process helper: write through the primary and fan out async."""
        self._version = version = self._version + 1
        entry = yield from self.primary.put(key, value, version)
        for replica in self.replicas:
            self.env.process(self._replicate(replica, key, entry),
                             name=f"repl:{self.name}:{key}")
        if session is not None:
            session.observe(version)
        return entry

    def _replicate(self, replica: Replica, key: str, entry: Versioned):
        yield self.env.timeout(self.replication_lag)
        replica.apply(key, entry)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get_primary(self, key: str):
        """Process helper: linearizable read from the primary."""
        entry = yield from self.primary.get(key)
        return entry

    def get_causal(self, key: str, session: CausalSession):
        """Process helper: read a replica without violating the session.

        Blocks until the chosen replica has applied everything in the
        session's frontier, then reads and advances the frontier.
        """
        replica = self._pick_replica()
        if replica.applied < session.frontier:
            self.causal_waits += 1
            yield from replica.wait_for(session.frontier)
        entry = yield from replica.store.get(key)
        if entry is not None:
            session.observe(entry.version)
        return entry

    def _pick_replica(self) -> Replica:
        if not self.replicas:
            raise RuntimeError(f"{self.name} has no replicas to read from")
        return self.replicas[self._rng.randrange(len(self.replicas))]

"""Single-node key-value store primitives."""

from __future__ import annotations

import dataclasses
import typing

from repro.kvstore.versionclock import VersionVector

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


@dataclasses.dataclass(frozen=True)
class Versioned:
    """A value paired with the version vector under which it was written."""

    value: object
    version: VersionVector
    write_time: float


class KVStore:
    """A simple in-memory key-value store with simulated access latency.

    All operations are process helpers (``yield from store.get(...)``)
    so that access latency is charged in simulated time.
    """

    def __init__(self, env: "Environment", name: str,
                 read_latency: float = 0.0001,
                 write_latency: float = 0.00015) -> None:
        self.env = env
        self.name = name
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._data: dict[str, Versioned] = {}
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # immediate (zero-latency) accessors used by auditors and tests
    # ------------------------------------------------------------------
    def peek(self, key: str) -> Versioned | None:
        """Read without charging latency (for audits, not workloads)."""
        return self._data.get(key)

    def put_now(self, key: str, value: object,
                version: VersionVector | None = None) -> Versioned:
        """Write without charging latency (for audits/ingestion shortcuts)."""
        entry = Versioned(value=value,
                          version=version or VersionVector(),
                          write_time=self.env.now)
        self._data[key] = entry
        self.writes += 1
        return entry

    # ------------------------------------------------------------------
    # simulated-latency operations
    # ------------------------------------------------------------------
    def get(self, key: str):
        """Process helper: read ``key`` (returns ``Versioned`` or None)."""
        yield self.env.timeout(self.read_latency)
        self.reads += 1
        return self._data.get(key)

    def put(self, key: str, value: object,
            version: VersionVector | None = None):
        """Process helper: write ``key``."""
        yield self.env.timeout(self.write_latency)
        return self.put_now(key, value, version)

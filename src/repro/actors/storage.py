"""Grain storage providers (durable state behind grains)."""

from __future__ import annotations

import typing

from repro.cow import CowState, clone, materialize

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime import Environment


class GrainStorage:
    """Interface for grain state persistence."""

    def read(self, grain_type: str, key: str):
        """Process helper: load state (dict) or None."""
        raise NotImplementedError

    def write(self, grain_type: str, key: str, state: dict):
        """Process helper: persist state."""
        raise NotImplementedError

    def clear(self, grain_type: str, key: str):
        """Process helper: delete persisted state."""
        raise NotImplementedError


class _StateVersion:
    """One immutable persisted version of a grain's state.

    The store never mutates ``data`` and never hands out a mutable
    reference to it: readers get a copy-on-write view, writers install
    a freshly materialised tree.  That keeps crash-discard semantics
    (volatile views die with their silo, persisted versions survive)
    without deep-copying state across the storage boundary.
    """

    __slots__ = ("data", "version")

    def __init__(self, data: dict, version: int) -> None:
        self.data = data
        self.version = version


class MemoryGrainStorage(GrainStorage):
    """In-memory storage with simulated read/write latency.

    State crosses the boundary via version handles: a read returns an
    isolated :class:`~repro.cow.CowState` view of the current version
    (O(1) — grains cannot share mutable state through the store), a
    write materialises the caller's state into a new frozen version,
    sharing unchanged sub-trees with the previous one.  Writing a view
    that was never mutated keeps the current version (no-op persist).
    """

    def __init__(self, env: "Environment", name: str,
                 read_latency: float = 0.0002,
                 write_latency: float = 0.0004) -> None:
        self.env = env
        self.name = name
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._data: dict[tuple[str, str], _StateVersion] = {}
        self.reads = 0
        self.writes = 0

    def read(self, grain_type: str, key: str):
        yield self.env.timeout(self.read_latency)
        self.reads += 1
        version = self._data.get((grain_type, key))
        return CowState(version.data) if version is not None else None

    def write(self, grain_type: str, key: str, state: dict):
        yield self.env.timeout(self.write_latency)
        self.writes += 1
        self._install(grain_type, key, state)

    def _install(self, grain_type: str, key: str, state: dict) -> None:
        data = materialize(state)
        current = self._data.get((grain_type, key))
        if current is not None and current.data is data:
            return  # unmutated view written back: version unchanged
        number = current.version + 1 if current is not None else 1
        self._data[(grain_type, key)] = _StateVersion(data, number)

    def clear(self, grain_type: str, key: str):
        yield self.env.timeout(self.write_latency)
        self.writes += 1
        self._data.pop((grain_type, key), None)

    def peek(self, grain_type: str, key: str) -> dict | None:
        """Zero-latency read for audits and tests (detached copy)."""
        version = self._data.get((grain_type, key))
        return clone(version.data) if version is not None else None

    def keys(self) -> list[tuple[str, str]]:
        return list(self._data)

"""Placement: deciding which silo hosts a grain activation.

Membership is dynamic: silos join, drain and crash at runtime.  Every
ring change bumps the placement *epoch*, which keys the cluster's
routing cache; delivery re-derives the route when a message arrives,
so it re-places instead of creating an activation on a stale owner.
The :class:`GrainDirectory` complements the ring with a record of where
each grain is *actually* activated; routing follows it, so a grain
whose ring owner moved keeps its traffic until it is handed off.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import typing

from repro.actors.errors import NoLiveSilos

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.actors.silo import Silo


def _hash(value: str) -> int:
    return int.from_bytes(
        hashlib.sha256(value.encode()).digest()[:8], "big")


@functools.lru_cache
def _ring_points(name: str, virtual_nodes: int) -> tuple[int, ...]:
    """A silo's ring points; pure, so hashed once per process."""
    return tuple(_hash(f"{name}#{i}") for i in range(virtual_nodes))


class ConsistentHashPlacement:
    """Consistent-hash ring with virtual nodes.

    Deterministic for a given silo set, and moves only ~1/n of grains
    when a silo joins or leaves — matching how Orleans keeps placement
    stable across membership changes.  ``epoch`` counts ring changes;
    it is the version number the routing layer uses to detect stale
    placement decisions.
    """

    def __init__(self, virtual_nodes: int = 64) -> None:
        self.virtual_nodes = virtual_nodes
        self.epoch = 0
        self._ring: list[tuple[int, "Silo"]] = []
        self._hashes: list[int] = []
        self._silos: list["Silo"] = []

    @property
    def silos(self) -> list["Silo"]:
        return list(self._silos)

    def add_silo(self, silo: "Silo") -> None:
        self._silos.append(silo)
        for point in _ring_points(silo.name, self.virtual_nodes):
            index = bisect.bisect(self._hashes, point)
            self._hashes.insert(index, point)
            self._ring.insert(index, (point, silo))
        self.epoch += 1

    def remove_silo(self, silo: "Silo") -> None:
        self._silos.remove(silo)
        kept = [(point, s) for point, s in self._ring if s is not silo]
        self._ring = kept
        self._hashes = [point for point, _ in kept]
        self.epoch += 1

    def place(self, grain_type_name: str, key: str) -> "Silo":
        """The silo responsible for (grain type, key)."""
        if not self._ring:
            raise NoLiveSilos("no live silos in the placement ring")
        point = _hash(f"{grain_type_name}/{key}")
        index = bisect.bisect(self._hashes, point)
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]


class GrainDirectory:
    """Cluster-wide record of live activations.

    The ring says where a grain *should* live; the directory says where
    it *does* live: it maps a grain's (type name, key) to its silo.
    After a membership change the two disagree until the grain is
    handed off to its new owner.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], "Silo"] = {}
        #: Invalidation hook called with each (type_name, key) whose
        #: entry changes.  The cluster points this at its routing cache:
        #: register/unregister/drop happen without an epoch bump (e.g. a
        #: migrated grain being adopted by its new owner), so epoch
        #: checks alone cannot keep a routing cache coherent.
        self.on_change: typing.Callable[[tuple[str, str]], object] | None = (
            None)

    def register(self, type_name: str, key: str, silo: "Silo") -> None:
        self._entries[(type_name, key)] = silo
        if self.on_change is not None:
            self.on_change((type_name, key))

    def unregister(self, type_name: str, key: str) -> None:
        self._entries.pop((type_name, key), None)
        if self.on_change is not None:
            self.on_change((type_name, key))

    def drop_silo(self, silo: "Silo") -> None:
        """Remove every entry hosted on ``silo`` (crash path)."""
        dropped = [ident for ident, host in self._entries.items()
                   if host is silo]
        for ident in dropped:
            del self._entries[ident]
        if self.on_change is not None:
            for ident in dropped:
                self.on_change(ident)

    def lookup(self, type_name: str, key: str) -> "Silo | None":
        """The silo hosting the grain's activation, if it has one."""
        return self._entries.get((type_name, key))

"""Placement: deciding which silo hosts a grain activation.

Membership is dynamic: silos join, drain and crash at runtime.  Every
ring change bumps the placement *epoch*; messages snapshot the epoch
when they are routed, so delivery can detect that the ring moved under
them and re-place instead of creating an activation on a stale owner.
The :class:`GrainDirectory` complements the ring with a record of where
each grain is *actually* activated, letting lookups distinguish a grain
that moved (stale activation on an old owner) from one that was lost
in a crash (state discarded, must re-activate from storage).
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


class DirectoryEntry(typing.NamedTuple):
    """Where a grain is activated and under which placement epoch."""

    silo: "Silo"
    epoch: int


class GrainDirectory:
    """Cluster-wide record of live activations.

    The ring says where a grain *should* live; the directory says where
    it *does* live (and since which epoch).  After a membership change
    the two can disagree, and :meth:`classify` names the disagreement:

    ``active``
        activated on the silo the current ring points at.
    ``moved``
        activated on a silo the ring no longer points at — a stale
        activation from an earlier epoch (migration pending).
    ``lost``
        its hosting silo crashed; the activation (and any volatile
        state) is gone and the next call re-activates from storage.
    ``unknown``
        never activated, or deactivated cleanly.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], DirectoryEntry] = {}
        self._lost: set[tuple[str, str]] = set()
        #: Invalidation hook called with each (type_name, key) whose
        #: entry changes.  The cluster points this at its routing cache:
        #: register/unregister/drop happen without an epoch bump (e.g. a
        #: migrated grain being adopted by its new owner), so epoch
        #: checks alone cannot keep a routing cache coherent.
        self.on_change: typing.Callable[[tuple[str, str]], object] | None = (
            None)

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, type_name: str, key: str, silo: "Silo",
                 epoch: int) -> None:
        self._entries[(type_name, key)] = DirectoryEntry(silo, epoch)
        self._lost.discard((type_name, key))
        if self.on_change is not None:
            self.on_change((type_name, key))

    def unregister(self, type_name: str, key: str) -> None:
        self._entries.pop((type_name, key), None)
        if self.on_change is not None:
            self.on_change((type_name, key))

    def drop_silo(self, silo: "Silo") -> list[tuple[str, str]]:
        """Remove every entry hosted on ``silo`` (crash path); the
        dropped idents are remembered as *lost* until re-registered."""
        dropped = [ident for ident, entry in self._entries.items()
                   if entry.silo is silo]
        for ident in dropped:
            del self._entries[ident]
            self._lost.add(ident)
        if self.on_change is not None:
            for ident in dropped:
                self.on_change(ident)
        return dropped

    def lookup(self, type_name: str, key: str) -> DirectoryEntry | None:
        return self._entries.get((type_name, key))

    def classify(self, type_name: str, key: str,
                 placement: ConsistentHashPlacement) -> str:
        entry = self._entries.get((type_name, key))
        if entry is None:
            return "lost" if (type_name, key) in self._lost else "unknown"
        try:
            owner = placement.place(type_name, key)
        except NoLiveSilos:
            return "moved"
        return "active" if owner is entry.silo else "moved"

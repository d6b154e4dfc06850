"""Version vectors for causal ordering of replicated writes."""

from __future__ import annotations

import typing


class VersionVector:
    """A mapping node-id -> counter with the usual partial order.

    ``b`` dominates ``a`` iff every counter in ``a`` is <= the
    corresponding counter in ``b``; missing entries count as zero.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: typing.Mapping[str, int] | None = None) -> None:
        self._clock: dict[str, int] = dict(clock or {})

    def get(self, node: str) -> int:
        return self._clock.get(node, 0)

    def increment(self, node: str) -> "VersionVector":
        """Return a new vector with ``node``'s counter advanced by one."""
        clock = dict(self._clock)
        clock[node] = clock.get(node, 0) + 1
        return VersionVector(clock)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum of the two vectors."""
        clock = dict(self._clock)
        for node, counter in other._clock.items():
            if counter > clock.get(node, 0):
                clock[node] = counter
        return VersionVector(clock)

    def dominates(self, other: "VersionVector") -> bool:
        """True when ``self >= other`` pointwise."""
        return all(self.get(node) >= counter
                   for node, counter in other._clock.items())

    def copy(self) -> "VersionVector":
        return VersionVector(self._clock)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        # Missing entries are implicitly zero.
        nodes = set(self._clock) | set(other._clock)
        return all(self.get(node) == other.get(node) for node in nodes)

    def __hash__(self) -> int:
        return hash(tuple(sorted(
            (node, counter) for node, counter in self._clock.items()
            if counter)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{node}:{counter}" for node, counter
                          in sorted(self._clock.items()))
        return f"<VV {inner}>"

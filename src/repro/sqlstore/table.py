"""Tables, rows and version chains for the MVCC engine."""

from __future__ import annotations

import bisect
import dataclasses
import operator
import typing

INFINITY = float("inf")

_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


class UniqueViolation(Exception):
    """Insert of a primary key that already has a visible version."""


@dataclasses.dataclass
class Version:
    """One version of a row.

    A version is visible to a snapshot taken at time ``ts`` when
    ``begin_ts <= ts < end_ts``.  ``end_ts`` is infinity while the
    version is current.
    """

    data: dict[str, object] | None  # None encodes a deletion marker
    begin_ts: float
    end_ts: float = INFINITY
    txid: int = 0


class Row(typing.NamedTuple):
    """An immutable row snapshot handed back to queries.

    A tuple, so a scan can build one per match with ``tuple.__new__``
    and no Python-level constructor call.
    """

    key: object
    data: typing.Mapping[str, object]

    def __getitem__(self, column: str) -> object:
        return self.data[column]

    def get(self, column: str, default: object = None) -> object:
        return self.data.get(column, default)


class Table:
    """A table: primary-key -> version chain, plus secondary indexes.

    A secondary index on ``column`` is exact at the current snapshot:
    ``_indexes[column][value]`` holds the keys whose *current* version
    has ``value``.  When a key's version leaves ``value`` (an update
    to another value, or a delete) at commit time ``ts``, ``(ts, key)``
    is appended to ``_retired[column][value]``.  Commit timestamps only
    increase, so each retired list is sorted, and a snapshot at ``ts``
    finds every key it can see under ``value`` in the current bucket
    plus the retired entries that ended after ``ts``.
    """

    def __init__(self, name: str, columns: typing.Sequence[str],
                 primary_key: str) -> None:
        if primary_key not in columns:
            raise ValueError(
                f"primary key {primary_key!r} not in columns {columns!r}")
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = primary_key
        self._chains: dict[object, list[Version]] = {}
        self._indexes: dict[str, dict[object, set[object]]] = {}
        self._retired: dict[str, dict[object,
                                      list[tuple[float, object]]]] = {}
        #: Scans answered from a secondary index (observability/tests).
        self.index_hits = 0

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        if column not in self.columns:
            raise ValueError(f"no column {column!r} in table {self.name!r}")
        if column in self._indexes:
            return
        self._indexes[column] = {}
        self._retired[column] = {}
        # Replay every version change in commit order, so the retired
        # lists come out sorted exactly as live installs keep them.
        changes = []
        for key, chain in self._chains.items():
            old = None
            for version in chain:
                changes.append((version.begin_ts, key, old, version.data))
                old = version.data
        changes.sort(key=_first)
        for ts, key, old, new in changes:
            self._reindex((column,), key, old, new, ts)

    # ------------------------------------------------------------------
    # version-chain access (engine internal)
    # ------------------------------------------------------------------
    def latest(self, key: object) -> Version | None:
        chain = self._chains.get(key)
        return chain[-1] if chain else None

    def visible(self, key: object, ts: float) -> dict[str, object] | None:
        """The row data visible at snapshot ``ts`` (None if absent)."""
        for version in reversed(self._chains.get(key, ())):
            if version.begin_ts <= ts < version.end_ts:
                return version.data
        return None

    def install(self, key: object, data: dict[str, object] | None,
                ts: float, txid: int) -> None:
        """Install a new current version at commit time ``ts``."""
        chain = self._chains.setdefault(key, [])
        old_data = None
        if chain:
            chain[-1].end_ts = ts
            old_data = chain[-1].data
        chain.append(Version(data=data, begin_ts=ts, txid=txid))
        if self._indexes:
            self._reindex(self._indexes, key, old_data, data, ts)

    def _reindex(self, columns: typing.Iterable[str], key: object,
                 old: dict[str, object] | None,
                 new: dict[str, object] | None, ts: float) -> None:
        """Move ``key`` between the buckets of ``columns`` for a version
        change ``old`` -> ``new`` committed at ``ts``."""
        for column in columns:
            if old is not None:
                value = old.get(column)
                if new is not None and new.get(column) == value:
                    continue
                current = self._indexes[column]
                bucket = current[value]
                bucket.discard(key)
                if not bucket:
                    del current[value]
                self._retired[column].setdefault(value, []).append(
                    (ts, key))
            if new is not None:
                self._indexes[column].setdefault(new.get(column),
                                                 set()).add(key)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def index_lookup(self, column: str, values: typing.Iterable[object],
                     ts: float) -> set[object]:
        """Keys that may have one of ``values`` in ``column`` at
        snapshot ``ts``: exactly the matching keys at the current
        snapshot, a superset (callers recheck) at an older one."""
        current = self._indexes.get(column)
        if current is None:
            raise KeyError(f"no index on {self.name}.{column}")
        retired = self._retired[column]
        self.index_hits += 1
        keys: set[object] = set()
        for value in values:
            keys.update(current.get(value, ()))
            entries = retired.get(value)
            if entries and entries[-1][0] > ts:
                start = bisect.bisect_right(entries, ts, key=_first)
                keys.update(map(_second, entries[start:]))
        return keys

    def candidates(self, conditions: typing.Sequence[tuple[str, object]],
                   ts: float) -> typing.Iterable[object]:
        """Keys a scan for ``conditions`` at ``ts`` must test: the
        intersection of every indexed condition's index lookup,
        smallest first, or every key when no condition is indexed."""
        lookups = [self.index_lookup(column, values, ts)
                   for column, values in conditions
                   if column in self._indexes]
        if not lookups:
            return self._chains
        lookups.sort(key=len)
        return lookups[0].intersection(*lookups[1:])

    def matching(self, ts: float, keys: typing.Iterable[object],
                 conditions: typing.Sequence[tuple[str, object]],
                 ) -> list[tuple[object, dict[str, object]]]:
        """``(key, data)`` for each of ``keys`` whose version visible at
        ``ts`` meets every condition, in ``keys`` order.  One inline
        loop: no Python call per candidate."""
        chains = self._chains
        found = []
        for key in keys:
            for version in reversed(chains.get(key, ())):
                if version.begin_ts <= ts < version.end_ts:
                    data = version.data
                    break
            else:
                continue
            if data is None:
                continue
            for column, values in conditions:
                if data.get(column) not in values:
                    break
            else:
                found.append((key, data))
        return found

    def __len__(self) -> int:
        """Number of keys with a live current version."""
        return sum(1 for chain in self._chains.values()
                   if chain and chain[-1].data is not None)

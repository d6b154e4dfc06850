"""A single-version table with exact secondary indexes.

A :class:`Predicate` is a SQL ``WHERE`` clause as data: a conjunction
of ``(column, values)`` conditions, built by :func:`eq` / :func:`isin`
and joined with ``&``, that a scan tests inline.
"""

from __future__ import annotations

import typing

Row = dict[str, object]
Condition = tuple[str, typing.Container[object]]


class Predicate:
    """A conjunction of ``row.get(column) in values`` conditions."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: tuple[Condition, ...]) -> None:
        self.conditions = conditions

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.conditions + other.conditions)


def eq(column: str, value: object) -> Predicate:
    """``column == value`` (index-assisted when an index exists)."""
    return Predicate(((column, (value,)),))


def isin(column: str, values: typing.Iterable[object]) -> Predicate:
    """``column IN values`` (index-assisted when an index exists)."""
    return Predicate(((column, frozenset(values)),))


class Table:
    """Primary key -> current row, plus exact secondary indexes.

    ``indexes[column][value]`` holds the keys whose row has ``value``
    in ``column``; every write moves its key between buckets, so a
    scan tests only the rows in every indexed condition's buckets.
    ``committed`` counts write batches: one per :meth:`upsert` or
    :meth:`update` call.
    """

    def __init__(self, columns: typing.Sequence[str], primary_key: str,
                 indexes: typing.Sequence[str] = ()) -> None:
        for column in (primary_key, *indexes):
            if column not in columns:
                raise ValueError(f"no column {column!r} in {columns!r}")
        self.primary_key = primary_key
        self.rows: dict[object, Row] = {}
        self.indexes: dict[str, dict[object, set[object]]] = {
            column: {} for column in indexes}
        self.committed = 0

    def upsert(self, rows: typing.Iterable[Row]) -> None:
        """Insert each row, or merge it into the row with its key."""
        for data in rows:
            key = data.get(self.primary_key)
            if key is None:
                raise ValueError(f"row has no {self.primary_key!r}")
            old = self.rows.get(key)
            self._put(key, old,
                      dict(data) if old is None else {**old, **data})
        self.committed += 1

    def update(self, predicate: Predicate, changes: Row) -> int:
        """Merge ``changes`` (not the primary key) into every row
        matching ``predicate``; returns how many rows matched."""
        if self.primary_key in changes:
            raise ValueError("update cannot change the primary key")
        keys = self._matching(predicate.conditions)
        for key in keys:
            old = self.rows[key]
            self._put(key, old, {**old, **changes})
        self.committed += 1
        return len(keys)

    def _put(self, key: object, old: Row | None, new: Row) -> None:
        self.rows[key] = new
        for column, index in self.indexes.items():
            value = new.get(column)
            if old is not None:
                previous = old.get(column)
                if previous == value:
                    continue
                bucket = index[previous]
                bucket.discard(key)
                if not bucket:
                    del index[previous]
            index.setdefault(value, set()).add(key)

    def scan(self, predicate: Predicate | None = None) -> list[Row]:
        """Copies of the rows matching ``predicate``, in ``str(key)``
        order (a C-level sort key: no Python call per row)."""
        rows = self.rows
        keys = self._matching(predicate.conditions if predicate else ())
        return [dict(rows[key]) for key in sorted(keys, key=str)]

    def sum(self, column: str, predicate: Predicate | None = None) -> int:
        """Sum of ``column`` over matching rows (missing values skipped)."""
        rows = self.rows
        keys = self._matching(predicate.conditions if predicate else ())
        return sum([value for key in keys
                    if (value := rows[key].get(column)) is not None])

    def _matching(self, conditions: tuple[Condition, ...]) -> list[object]:
        """Keys whose row meets every condition: one inline loop over
        the intersection of the indexed conditions' keys (its cost is
        the smallest one's size), or over every key."""
        lookups = []
        for column, values in conditions:
            index = self.indexes.get(column)
            if index is not None:
                # A lone bucket is read in place, never copied.
                buckets = [index[value] for value in values if value in index]
                lookups.append(buckets[0] if len(buckets) == 1
                               else set().union(*buckets))
        rows = self.rows
        candidates: typing.Iterable[object] = rows
        if lookups:
            lookups.sort(key=len)
            candidates = lookups[0].intersection(*lookups[1:])
        found = []
        for key in candidates:
            data = rows[key]
            for column, values in conditions:
                if data.get(column) not in values:
                    break
            else:
                found.append(key)
        return found

"""Tiny predicate combinators for querying MVCC tables.

These deliberately mirror the shape of a SQL ``WHERE`` clause without
parsing SQL.  A :class:`Predicate` is data: a conjunction of
``(column, values)`` conditions, each meaning "``row.get(column)`` is
one of ``values``".  :func:`eq` and :func:`isin` build one condition;
:func:`and_` (also spelt ``p & q``) concatenates them.  Because the
conditions are plain tuples, a table scan tests them inline and can
start from the secondary index of any condition's column.
"""

from __future__ import annotations

import typing

RowData = typing.Mapping[str, object]
Condition = tuple[str, typing.Container[object]]


class Predicate:
    """A conjunction of ``row.get(column) in values`` conditions."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: tuple[Condition, ...]) -> None:
        self.conditions = conditions

    def __call__(self, row: RowData) -> bool:
        for column, values in self.conditions:
            if row.get(column) not in values:
                return False
        return True

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.conditions + other.conditions)

    def __repr__(self) -> str:
        return "<Predicate {}>".format(" AND ".join(
            f"{column} in {values!r}" for column, values in self.conditions))


def eq(column: str, value: object) -> Predicate:
    """``column == value`` (index-assisted when an index exists)."""
    return Predicate(((column, (value,)),))


def isin(column: str, values: typing.Iterable[object]) -> Predicate:
    """``column IN values`` (index-assisted when an index exists)."""
    return Predicate(((column, frozenset(values)),))


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction of every predicate's conditions."""
    return Predicate(tuple(condition for predicate in predicates
                           for condition in predicate.conditions))

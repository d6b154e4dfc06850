"""Tiny predicate combinators for querying MVCC tables.

These deliberately mirror the shape of a SQL ``WHERE`` clause without
parsing SQL: :func:`eq` and its conjunction :func:`and_` (also spelt
``p & q``) return a :class:`Predicate` that can be tested against a
row-data mapping, and report the (column, value) pair they pin down
exactly — which lets the engine use a secondary index.
"""

from __future__ import annotations

import typing

RowData = typing.Mapping[str, object]


class Predicate:
    """A testable row condition, possibly index-assisted."""

    def __init__(self, test: typing.Callable[[RowData], bool],
                 equality: tuple[str, object] | None = None,
                 description: str = "?") -> None:
        self._test = test
        #: (column, value) when the predicate implies column == value.
        self.equality = equality
        self.description = description

    def __call__(self, row: RowData) -> bool:
        return self._test(row)

    def __and__(self, other: "Predicate") -> "Predicate":
        return and_(self, other)

    def __repr__(self) -> str:
        return f"<Predicate {self.description}>"


def eq(column: str, value: object) -> Predicate:
    """``column == value`` (index-assisted when an index exists)."""
    return Predicate(lambda row: row.get(column) == value,
                     equality=(column, value),
                     description=f"{column} == {value!r}")


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction; inherits the first index-usable equality, if any."""
    equality = None
    for predicate in predicates:
        if predicate.equality is not None:
            equality = predicate.equality
            break
    return Predicate(
        lambda row: all(predicate(row) for predicate in predicates),
        equality=equality,
        description=" AND ".join(p.description for p in predicates))

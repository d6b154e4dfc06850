"""A single-version indexed table: the stand-in for PostgreSQL.

The paper's *Customized Orleans* implementation sends the seller
dashboard to a relational store so that its two queries (revenue sum
and entry list) read one snapshot.  Here the store is one
:class:`Table` holding the current row per primary key, with exact
secondary indexes and :func:`eq` / :func:`isin` predicates.  Every
call runs to completion inside one kernel step, so two reads made in
the same step see the same state: the dashboard pays one query latency
and then runs both reads with no yield between them.
"""

from repro.sqlstore.table import Predicate, Table, eq, isin

__all__ = ["Predicate", "Table", "eq", "isin"]

"""The MVCC engine: snapshots, SI transactions, conflict detection."""

from __future__ import annotations

import itertools
import typing

from repro.sqlstore.query import Predicate
from repro.sqlstore.table import Row, Table, UniqueViolation


class SerializationError(Exception):
    """First-committer-wins conflict: another transaction committed a
    newer version of a row this transaction wrote."""


def _order_rows(rows: list[Row], order_by: str | None,
                descending: bool) -> None:
    """Sort rows in place: by column (missing-first) or primary key."""
    if order_by is not None:
        rows.sort(key=lambda row: (row.get(order_by) is not None,
                                   row.get(order_by), str(row.key)),
                  reverse=descending)
    else:
        rows.sort(key=lambda row: str(row.key))


class Snapshot:
    """A read-only view of the database as of a single timestamp.

    Both seller-dashboard queries run against one :class:`Snapshot`,
    which is exactly the consistency criterion the paper prescribes.
    """

    def __init__(self, engine: "MVCCEngine", ts: float) -> None:
        self.engine = engine
        self.ts = ts

    def read(self, table_name: str, key: object) -> Row | None:
        table = self.engine.table(table_name)
        data = table.visible(key, self.ts)
        if data is None:
            return None
        return Row(key=key, data=dict(data))

    def scan(self, table_name: str,
             predicate: Predicate | None = None,
             order_by: str | None = None,
             descending: bool = False,
             limit: int | None = None) -> list[Row]:
        """All rows visible at this snapshot matching ``predicate``.

        Uses a secondary index when the predicate pins an indexed column
        to a single value; otherwise a full scan.  ``order_by`` sorts by
        a column (rows missing the column sort first); without it, rows
        are ordered by primary key for determinism.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        table = self.engine.table(table_name)
        candidates: typing.Iterable[object]
        if (predicate is not None and predicate.equality is not None
                and predicate.equality[0] in table.indexed_columns):
            candidates = table.index_lookup(*predicate.equality)
        else:
            candidates = list(table.keys_at(self.ts))
        rows = []
        for key in candidates:
            data = table.visible(key, self.ts)
            if data is None:
                continue
            if predicate is None or predicate(data):
                rows.append(Row(key=key, data=dict(data)))
        _order_rows(rows, order_by, descending)
        if limit is not None:
            rows = rows[:limit]
        return rows

    def aggregate(self, table_name: str, column: str,
                  predicate: Predicate | None = None,
                  function: str = "sum"):
        """SUM/COUNT/AVG/MIN/MAX over matching rows at this snapshot."""
        rows = self.scan(table_name, predicate)
        values = [row[column] for row in rows if row.get(column) is not None]
        if function == "count":
            return len(rows)
        if not values:
            return None if function in ("min", "max", "avg") else 0
        if function == "sum":
            return sum(values)
        if function == "avg":
            return sum(values) / len(values)
        if function == "min":
            return min(values)
        if function == "max":
            return max(values)
        raise ValueError(f"unknown aggregate {function!r}")


class Transaction:
    """A snapshot-isolated read-write transaction.

    Reads see the begin snapshot; writes are buffered and installed
    atomically at commit.  Write-write conflicts with transactions that
    committed after this one began raise :class:`SerializationError`
    (first-committer-wins).
    """

    def __init__(self, engine: "MVCCEngine", txid: int, ts: float) -> None:
        self.engine = engine
        self.txid = txid
        self.begin_ts = ts
        self.snapshot = Snapshot(engine, ts)
        # (table, key) -> new data (None = delete)
        self._writes: dict[tuple[str, object], dict[str, object] | None] = {}
        self._inserted: set[tuple[str, object]] = set()
        self.status = "active"

    # ------------------------------------------------------------------
    # reads (own writes visible)
    # ------------------------------------------------------------------
    def read(self, table_name: str, key: object) -> Row | None:
        if (table_name, key) in self._writes:
            data = self._writes[(table_name, key)]
            return None if data is None else Row(key=key, data=dict(data))
        return self.snapshot.read(table_name, key)

    def scan(self, table_name: str,
             predicate: Predicate | None = None,
             order_by: str | None = None,
             descending: bool = False,
             limit: int | None = None) -> list[Row]:
        """Snapshot scan merged with this transaction's own writes.

        Index-assisted exactly like :meth:`Snapshot.scan` (a predicate
        pinning an indexed column to one value walks the index rather
        than the whole table); ``limit`` applies *after* the merge so
        own writes cannot be displaced by committed rows.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        rows = {row.key: row
                for row in self.snapshot.scan(table_name, predicate)}
        for (tname, key), data in self._writes.items():
            if tname != table_name:
                continue
            if data is None:
                rows.pop(key, None)
            elif predicate is None or predicate(data):
                rows[key] = Row(key=key, data=dict(data))
            else:
                rows.pop(key, None)
        merged = list(rows.values())
        _order_rows(merged, order_by, descending)
        if limit is not None:
            merged = merged[:limit]
        return merged

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _require_active(self) -> None:
        if self.status != "active":
            raise RuntimeError(f"transaction {self.txid} is {self.status}")

    def insert(self, table_name: str, data: dict[str, object]) -> None:
        self._require_active()
        table = self.engine.table(table_name)
        key = data.get(table.primary_key)
        if key is None:
            raise ValueError(f"insert into {table_name} missing primary key")
        if self.read(table_name, key) is not None:
            raise UniqueViolation(f"{table_name}[{key!r}] already exists")
        self._writes[(table_name, key)] = dict(data)
        self._inserted.add((table_name, key))

    def update(self, table_name: str, key: object,
               changes: dict[str, object]) -> bool:
        self._require_active()
        current = self.read(table_name, key)
        if current is None:
            return False
        data = dict(current.data)
        data.update(changes)
        self._writes[(table_name, key)] = data
        return True

    def upsert(self, table_name: str, data: dict[str, object]) -> None:
        self._require_active()
        table = self.engine.table(table_name)
        key = data[table.primary_key]
        if not self.update(table_name, key, dict(data)):
            self.insert(table_name, data)

    def delete(self, table_name: str, key: object) -> bool:
        self._require_active()
        if self.read(table_name, key) is None:
            return False
        self._writes[(table_name, key)] = None
        return True

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------
    def commit(self) -> float:
        """Validate and install all writes atomically; returns commit ts."""
        self._require_active()
        # First-committer-wins validation: if any written key has a
        # version installed after our snapshot, abort.
        for (table_name, key) in self._writes:
            latest = self.engine.table(table_name).latest(key)
            if latest is not None and latest.begin_ts > self.begin_ts:
                self.status = "aborted"
                raise SerializationError(
                    f"tx {self.txid}: write-write conflict on "
                    f"{table_name}[{key!r}]")
        commit_ts = self.engine._next_ts()
        for (table_name, key), data in self._writes.items():
            self.engine.table(table_name).install(
                key, data, commit_ts, self.txid)
        self.status = "committed"
        self.engine._committed += 1
        return commit_ts

    def abort(self) -> None:
        self._require_active()
        self.status = "aborted"
        self._writes.clear()


class MVCCEngine:
    """Multi-version storage engine with snapshot-isolated transactions.

    Timestamps are logical (a monotone counter), so the engine is fully
    deterministic and independent of the simulation clock; callers charge
    simulated latency separately.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._clock = itertools.count(1)
        self._txids = itertools.count(1)
        self._last_ts = 0.0
        self._committed = 0

    def _next_ts(self) -> float:
        self._last_ts = float(next(self._clock))
        return self._last_ts

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: typing.Sequence[str],
                     primary_key: str) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns, primary_key)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise KeyError(f"no table {name!r}")
        return table

    @property
    def committed_count(self) -> int:
        return self._committed

    # ------------------------------------------------------------------
    # transactions & snapshots
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start a snapshot-isolated transaction."""
        return Transaction(self, next(self._txids), self._last_ts)

    def snapshot(self) -> Snapshot:
        """A read-only snapshot of the current committed state."""
        return Snapshot(self, self._last_ts)

    def autocommit(self, table_name: str, data: dict[str, object]) -> None:
        """Single-row upsert in its own transaction (retried on conflict)."""
        while True:
            txn = self.begin()
            txn.upsert(table_name, data)
            try:
                txn.commit()
                return
            except SerializationError:  # pragma: no cover - single writer
                continue

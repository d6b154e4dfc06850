"""Unit tests for the MVCC engine and snapshot isolation."""

import pytest

from repro.sqlstore import (
    MVCCEngine,
    SerializationError,
    UniqueViolation,
    and_,
    eq,
)


@pytest.fixture
def engine():
    engine = MVCCEngine()
    engine.create_table("orders", ["id", "seller", "total", "status"],
                        primary_key="id")
    return engine


def put(engine, **data):
    txn = engine.begin()
    txn.insert("orders", data)
    txn.commit()


class TestSchema:
    def test_create_table_requires_pk_column(self):
        engine = MVCCEngine()
        with pytest.raises(ValueError):
            engine.create_table("t", ["a"], primary_key="b")

    def test_duplicate_table_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.create_table("orders", ["id"], primary_key="id")

    def test_unknown_table_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.table("nope")

    def test_index_on_unknown_column_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.table("orders").create_index("nope")


class TestBasicTransactions:
    def test_insert_then_read(self, engine):
        put(engine, id=1, seller="s1", total=10.0, status="open")
        row = engine.snapshot().read("orders", 1)
        assert row["seller"] == "s1"
        assert row["total"] == 10.0

    def test_read_missing_returns_none(self, engine):
        assert engine.snapshot().read("orders", 99) is None

    def test_own_writes_visible_before_commit(self, engine):
        txn = engine.begin()
        txn.insert("orders", {"id": 1, "seller": "s", "total": 1.0,
                              "status": "open"})
        assert txn.read("orders", 1) is not None
        assert engine.snapshot().read("orders", 1) is None
        txn.commit()
        assert engine.snapshot().read("orders", 1) is not None

    def test_update_and_delete(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        txn = engine.begin()
        assert txn.update("orders", 1, {"status": "paid"})
        txn.commit()
        assert engine.snapshot().read("orders", 1)["status"] == "paid"
        txn = engine.begin()
        assert txn.delete("orders", 1)
        txn.commit()
        assert engine.snapshot().read("orders", 1) is None

    def test_update_missing_returns_false(self, engine):
        txn = engine.begin()
        assert not txn.update("orders", 42, {"status": "x"})

    def test_delete_missing_returns_false(self, engine):
        txn = engine.begin()
        assert not txn.delete("orders", 42)

    def test_duplicate_insert_rejected(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        txn = engine.begin()
        with pytest.raises(UniqueViolation):
            txn.insert("orders", {"id": 1, "seller": "x", "total": 0,
                                  "status": "open"})

    def test_insert_missing_pk_rejected(self, engine):
        txn = engine.begin()
        with pytest.raises(ValueError):
            txn.insert("orders", {"seller": "s"})

    def test_abort_discards_writes(self, engine):
        txn = engine.begin()
        txn.insert("orders", {"id": 1, "seller": "s", "total": 1.0,
                              "status": "open"})
        txn.abort()
        assert engine.snapshot().read("orders", 1) is None

    def test_operations_on_finished_txn_rejected(self, engine):
        txn = engine.begin()
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.insert("orders", {"id": 1})
        with pytest.raises(RuntimeError):
            txn.commit()

    def test_upsert_inserts_then_updates(self, engine):
        txn = engine.begin()
        txn.upsert("orders", {"id": 1, "seller": "s", "total": 1.0,
                              "status": "open"})
        txn.commit()
        txn = engine.begin()
        txn.upsert("orders", {"id": 1, "seller": "s", "total": 2.0,
                              "status": "open"})
        txn.commit()
        assert engine.snapshot().read("orders", 1)["total"] == 2.0


class TestSnapshotIsolation:
    def test_reader_does_not_see_later_commits(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        reader = engine.begin()
        writer = engine.begin()
        writer.update("orders", 1, {"total": 99.0})
        writer.commit()
        assert reader.read("orders", 1)["total"] == 1.0
        assert engine.snapshot().read("orders", 1)["total"] == 99.0

    def test_first_committer_wins(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        t1 = engine.begin()
        t2 = engine.begin()
        t1.update("orders", 1, {"total": 2.0})
        t2.update("orders", 1, {"total": 3.0})
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        assert t2.status == "aborted"

    def test_disjoint_writes_both_commit(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        put(engine, id=2, seller="s", total=1.0, status="open")
        t1 = engine.begin()
        t2 = engine.begin()
        t1.update("orders", 1, {"total": 2.0})
        t2.update("orders", 2, {"total": 3.0})
        t1.commit()
        t2.commit()  # must not raise

    def test_snapshot_is_stable_across_concurrent_commits(self, engine):
        """The seller-dashboard criterion: two reads from one snapshot
        must reflect the same state."""
        for i in range(5):
            put(engine, id=i, seller="s", total=10.0, status="open")
        snapshot = engine.snapshot()
        total_before = snapshot.aggregate("orders", "total",
                                          eq("seller", "s"))
        writer = engine.begin()
        writer.update("orders", 0, {"total": 1000.0})
        writer.commit()
        rows = snapshot.scan("orders", eq("seller", "s"))
        total_after = sum(row["total"] for row in rows)
        assert total_before == total_after == 50.0

    def test_write_skew_is_permitted_under_si(self, engine):
        """Classic SI behaviour (not serializable): both commit."""
        put(engine, id=1, seller="a", total=1.0, status="open")
        put(engine, id=2, seller="b", total=1.0, status="open")
        t1 = engine.begin()
        t2 = engine.begin()
        # Each reads the other's row, writes its own.
        t1.read("orders", 2)
        t2.read("orders", 1)
        t1.update("orders", 1, {"status": "closed"})
        t2.update("orders", 2, {"status": "closed"})
        t1.commit()
        t2.commit()


class TestQueries:
    def setup_rows(self, engine):
        rows = [
            dict(id=1, seller="a", total=10.0, status="open"),
            dict(id=2, seller="a", total=20.0, status="paid"),
            dict(id=3, seller="b", total=30.0, status="open"),
            dict(id=4, seller="b", total=40.0, status="paid"),
        ]
        for row in rows:
            put(engine, **row)

    def test_scan_all(self, engine):
        self.setup_rows(engine)
        assert len(engine.snapshot().scan("orders")) == 4

    def test_scan_with_eq_predicate(self, engine):
        self.setup_rows(engine)
        rows = engine.snapshot().scan("orders", eq("seller", "a"))
        assert {row.key for row in rows} == {1, 2}

    def test_scan_with_conjunction(self, engine):
        self.setup_rows(engine)
        predicate = and_(eq("seller", "b"), eq("status", "open"))
        rows = engine.snapshot().scan("orders", predicate)
        assert [row.key for row in rows] == [3]

    def test_aggregates(self, engine):
        self.setup_rows(engine)
        snapshot = engine.snapshot()
        assert snapshot.aggregate("orders", "total") == 100.0
        assert snapshot.aggregate("orders", "total",
                                  eq("seller", "a")) == 30.0
        assert snapshot.aggregate("orders", "id", function="count") == 4
        assert snapshot.aggregate("orders", "total", function="avg") == 25.0
        assert snapshot.aggregate("orders", "total", function="min") == 10.0
        assert snapshot.aggregate("orders", "total", function="max") == 40.0

    def test_aggregate_empty_result(self, engine):
        snapshot = engine.snapshot()
        assert snapshot.aggregate("orders", "total") == 0
        assert snapshot.aggregate("orders", "total", function="avg") is None
        assert snapshot.aggregate("orders", "total", function="count") == 0

    def test_unknown_aggregate_rejected(self, engine):
        self.setup_rows(engine)
        with pytest.raises(ValueError):
            engine.snapshot().aggregate("orders", "total", function="median")

    def test_index_accelerated_scan_matches_full_scan(self, engine):
        self.setup_rows(engine)
        engine.table("orders").create_index("seller")
        indexed = engine.snapshot().scan("orders", eq("seller", "a"))
        assert {row.key for row in indexed} == {1, 2}

    def test_index_respects_snapshot_visibility(self, engine):
        self.setup_rows(engine)
        engine.table("orders").create_index("seller")
        snapshot = engine.snapshot()
        txn = engine.begin()
        txn.update("orders", 1, {"seller": "zzz"})
        txn.commit()
        # Old snapshot must still see row 1 under seller "a"... but the
        # current index no longer lists it; the scan falls back correctly
        # for the *new* snapshot.
        new_rows = engine.snapshot().scan("orders", eq("seller", "zzz"))
        assert [row.key for row in new_rows] == [1]
        old_rows = snapshot.scan("orders", eq("seller", "zzz"))
        assert old_rows == []
        # ... and must still FIND row 1 under its old value: the index
        # is additive (a candidate superset), so a later commit cannot
        # hide a row from an older snapshot (MVCC false negative).
        assert {row.key for row in snapshot.scan("orders",
                                                 eq("seller", "a"))} == {1, 2}

    def test_txn_scan_index_respects_begin_snapshot(self, engine):
        """A transaction's index-assisted scan sees its begin snapshot
        even after a concurrent commit moves a row out of the bucket."""
        self.setup_rows(engine)
        engine.table("orders").create_index("status")
        reader = engine.begin()
        writer = engine.begin()
        writer.update("orders", 1, {"status": "paid"})
        writer.commit()
        rows = reader.scan("orders", eq("status", "open"))
        assert {row.key for row in rows} == {1, 3}
        assert engine.table("orders").index_hits > 0

    def test_txn_scan_sees_own_writes(self, engine):
        self.setup_rows(engine)
        txn = engine.begin()
        txn.insert("orders", {"id": 9, "seller": "a", "total": 5.0,
                              "status": "open"})
        txn.delete("orders", 1)
        rows = txn.scan("orders", eq("seller", "a"))
        assert {row.key for row in rows} == {2, 9}

    def test_txn_scan_excludes_own_write_not_matching_predicate(self, engine):
        self.setup_rows(engine)
        txn = engine.begin()
        txn.update("orders", 1, {"seller": "moved"})
        rows = txn.scan("orders", eq("seller", "a"))
        assert {row.key for row in rows} == {2}


class TestVersionChains:
    def test_old_versions_remain_visible_to_old_snapshots(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        s1 = engine.snapshot()
        txn = engine.begin()
        txn.update("orders", 1, {"total": 2.0})
        txn.commit()
        s2 = engine.snapshot()
        assert s1.read("orders", 1)["total"] == 1.0
        assert s2.read("orders", 1)["total"] == 2.0

    def test_len_counts_live_rows_only(self, engine):
        put(engine, id=1, seller="s", total=1.0, status="open")
        put(engine, id=2, seller="s", total=1.0, status="open")
        txn = engine.begin()
        txn.delete("orders", 1)
        txn.commit()
        assert len(engine.table("orders")) == 1

    def test_autocommit_upsert(self, engine):
        engine.autocommit("orders", {"id": 7, "seller": "s", "total": 3.0,
                                     "status": "open"})
        assert engine.snapshot().read("orders", 7)["total"] == 3.0


class TestQueryExtensions:
    def setup_rows(self, engine):
        rows = [
            dict(id=1, seller="a", total=10.0, status="open"),
            dict(id=2, seller="a", total=20.0, status="paid"),
            dict(id=3, seller="b", total=30.0, status="open"),
            dict(id=4, seller="b", total=40.0, status="paid"),
            dict(id=5, seller="c", total=50.0, status="canceled"),
        ]
        for row in rows:
            put(engine, **row)

    def test_order_by_ascending_descending(self, engine):
        self.setup_rows(engine)
        snapshot = engine.snapshot()
        ascending = snapshot.scan("orders", order_by="total")
        assert [row.key for row in ascending] == [1, 2, 3, 4, 5]
        descending = snapshot.scan("orders", order_by="total",
                                   descending=True)
        assert [row.key for row in descending] == [5, 4, 3, 2, 1]

    def test_limit(self, engine):
        self.setup_rows(engine)
        rows = engine.snapshot().scan("orders", order_by="total", limit=2)
        assert [row.key for row in rows] == [1, 2]

    def test_limit_zero(self, engine):
        self.setup_rows(engine)
        assert engine.snapshot().scan("orders", limit=0) == []

    def test_negative_limit_rejected(self, engine):
        self.setup_rows(engine)
        with pytest.raises(ValueError):
            engine.snapshot().scan("orders", limit=-1)

    def test_order_by_missing_column_sorts_first(self, engine):
        self.setup_rows(engine)
        txn = engine.begin()
        txn.insert("orders", {"id": 9, "seller": "z", "status": "open"})
        txn.commit()
        rows = engine.snapshot().scan("orders", order_by="total")
        assert rows[0].key == 9  # missing column first

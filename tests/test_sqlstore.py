"""Unit tests for the single-version indexed SQL table."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import CustomizedOrleansApp
from repro.control import run_scenario
from repro.runtime import environment
from repro.sqlstore import Table, eq, isin

COLUMNS = ["id", "seller", "total", "status"]


@pytest.fixture
def table():
    return Table(COLUMNS, primary_key="id")


def rows_of(table, predicate=None):
    return [row["id"] for row in table.scan(predicate)]


class TestSchema:
    def test_create_table_requires_pk_column(self):
        with pytest.raises(ValueError):
            Table(["a"], primary_key="b")

    def test_index_on_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            Table(COLUMNS, primary_key="id", indexes=("nope",))

    def test_update_cannot_change_the_primary_key(self, table):
        table.upsert([{"id": 1, "seller": "s"}])
        with pytest.raises(ValueError):
            table.update(eq("id", 1), {"id": 2})


class TestBasicTransactions:
    def test_insert_then_read(self, table):
        table.upsert([{"id": 1, "seller": "s1", "total": 10.0,
                       "status": "open"}])
        [row] = table.scan(eq("id", 1))
        assert row == {"id": 1, "seller": "s1", "total": 10.0,
                       "status": "open"}

    def test_read_missing_returns_none(self, table):
        assert table.scan(eq("id", 99)) == []

    def test_insert_missing_pk_rejected(self, table):
        with pytest.raises(ValueError):
            table.upsert([{"seller": "s"}])

    def test_upsert_inserts_then_updates(self, table):
        table.upsert([{"id": 1, "seller": "s", "total": 1.0,
                       "status": "open"}])
        table.upsert([{"id": 1, "total": 2.0}])
        assert table.scan() == [{"id": 1, "seller": "s", "total": 2.0,
                                 "status": "open"}]

    def test_update_missing_returns_false(self, table):
        assert not table.update(eq("id", 42), {"status": "x"})
        assert table.rows == {}

    def test_update_by_predicate_merges_into_every_match(self, table):
        table.upsert([{"id": key, "seller": seller, "status": "open"}
                      for key, seller in ((1, "a"), (2, "a"), (3, "b"))])
        assert table.update(eq("seller", "a"), {"status": "paid"}) == 2
        assert [row["status"] for row in table.scan()] == [
            "paid", "paid", "open"]

    def test_scan_hands_out_copies(self, table):
        table.upsert([{"id": 1, "status": "open"}])
        table.scan()[0]["status"] = "mutated"
        assert table.scan()[0]["status"] == "open"

    def test_committed_counts_write_batches(self, table):
        table.upsert([{"id": 1}, {"id": 2}])
        table.update(eq("id", 3), {"status": "x"})
        assert table.committed == 2


class TestQueries:
    def setup_rows(self, table):
        table.upsert([
            dict(id=1, seller="a", total=10.0, status="open"),
            dict(id=2, seller="a", total=20.0, status="paid"),
            dict(id=3, seller="b", total=30.0, status="open"),
            dict(id=4, seller="b", total=40.0, status="paid"),
        ])

    def test_scan_all(self, table):
        self.setup_rows(table)
        assert len(table.scan()) == 4

    def test_scan_with_eq_predicate(self, table):
        self.setup_rows(table)
        assert rows_of(table, eq("seller", "a")) == [1, 2]

    def test_scan_with_conjunction(self, table):
        self.setup_rows(table)
        assert rows_of(table, eq("seller", "b") & eq("status", "open")) \
            == [3]

    def test_aggregates(self, table):
        self.setup_rows(table)
        table.upsert([{"id": 5, "seller": "a", "status": "open"}])
        assert table.sum("total") == 100.0
        assert table.sum("total", eq("seller", "a")) == 30.0
        assert table.sum("total", eq("seller", "a")
                         & isin("status", ["paid", "void"])) == 20.0

    def test_aggregate_empty_result(self, table):
        assert table.sum("total") == 0
        self.setup_rows(table)
        assert table.sum("total", eq("seller", "zzz")) == 0

    def test_scan_is_in_primary_key_string_order(self, table):
        table.upsert([{"id": key} for key in (2, 10, 1, 30, 3)])
        assert rows_of(table) == [1, 10, 2, 3, 30]

    def test_index_accelerated_scan_matches_full_scan(self, table):
        indexed = Table(COLUMNS, primary_key="id",
                        indexes=("seller", "status"))
        for target in (table, indexed):
            self.setup_rows(target)
            target.update(eq("id", 1), {"seller": "b"})
        for predicate in (eq("seller", "a"), eq("seller", "b"),
                          eq("status", "open") & eq("seller", "b")):
            assert indexed.scan(predicate) == table.scan(predicate)


class TestExactIndex:
    """``indexes[column][value]`` holds exactly the keys whose current
    row has ``value``, and follows every write."""

    def setup_rows(self):
        table = Table(COLUMNS, primary_key="id", indexes=("status",))
        table.upsert([{"id": key, "seller": "a", "total": 1.0,
                       "status": "open"} for key in (1, 2, 3, 4)])
        return table

    def test_current_snapshot_gets_exactly_the_live_keys(self):
        table = self.setup_rows()
        table.update(eq("id", 1), {"status": "paid"})
        table.upsert([{"id": 2, "status": "void"}])
        assert table.indexes["status"] == {
            "open": {3, 4}, "paid": {1}, "void": {2}}
        table.update(isin("id", (3, 4)), {"status": "paid"})
        assert table.indexes["status"] == {"paid": {1, 3, 4}, "void": {2}}

    def test_an_unchanged_value_stays_in_its_bucket(self):
        table = self.setup_rows()
        table.update(eq("id", 3), {"total": 9.0})
        table.upsert([{"id": 4, "status": "open"}])
        assert table.indexes["status"] == {"open": {1, 2, 3, 4}}

    def test_a_row_without_the_column_is_indexed_under_none(self):
        table = self.setup_rows()
        table.upsert([{"id": 5}])
        assert table.indexes["status"][None] == {5}
        assert rows_of(table, eq("status", None)) == [5]

    def test_isin_and_conjunction_use_both_indexes(self):
        """The scan tests only the keys in every indexed condition's
        buckets: here 1 of the 3 keys of the smaller bucket."""
        table = Table(COLUMNS, primary_key="id",
                      indexes=("status", "seller"))
        table.upsert([{"id": key, "seller": seller, "status": status}
                      for key, seller, status in (
                          (1, "a", "paid"), (2, "a", "paid"),
                          (3, "b", "open"), (4, "b", "open"),
                          (5, "b", "paid"), (6, "a", "open"))])

        class CountingRows(dict):
            reads = 0

            def __getitem__(self, key):
                CountingRows.reads += 1
                return dict.__getitem__(self, key)

        table.rows = CountingRows(table.rows)
        predicate = isin("status", ["paid", "void"]) & eq("seller", "b")
        assert rows_of(table, predicate) == [5]
        assert CountingRows.reads == 2  # one test, one copy


# ---------------------------------------------------------------------------
# property: an index-assisted scan equals a brute-force scan
# ---------------------------------------------------------------------------

PROP_COLUMNS = ("a", "b", "c")
INDEXED = ("a", "b")
VALUES = (0, 1, 2, None)

#: A row's non-key columns: each absent or one of three values.
row_values = st.dictionaries(st.sampled_from(PROP_COLUMNS),
                             st.integers(min_value=0, max_value=2))
conditions = st.tuples(
    st.sampled_from(PROP_COLUMNS),
    st.one_of(st.sampled_from(VALUES).map(lambda value: ("eq", value)),
              st.frozensets(st.sampled_from(VALUES), max_size=3)
              .map(lambda values: ("isin", values))))
predicate_specs = st.lists(conditions, min_size=1, max_size=3)
#: Keys 0..11: ``str`` order ("10" < "2") differs from ``int`` order.
writes = st.lists(st.one_of(
    st.tuples(st.just("upsert"),
              st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                                 row_values), max_size=4)),
    st.tuples(st.just("update"), st.tuples(predicate_specs, row_values))),
    max_size=14)


def _predicate(spec):
    predicate = None
    for column, (kind, arg) in spec:
        part = eq(column, arg) if kind == "eq" else isin(column, arg)
        predicate = part if predicate is None else predicate & part
    return predicate


def _matches(data, spec):
    return all(data.get(column) in ((arg,) if kind == "eq" else arg)
               for column, (kind, arg) in spec)


@settings(max_examples=150, deadline=None)
@given(history=writes, specs=st.lists(predicate_specs, min_size=1,
                                      max_size=4))
def test_index_assisted_scan_equals_brute_force_scan(history, specs):
    table = Table(("id",) + PROP_COLUMNS, primary_key="id",
                  indexes=INDEXED)
    state: dict = {}
    for kind, arg in history:
        if kind == "upsert":
            table.upsert([{"id": key, **values} for key, values in arg])
            for key, values in arg:
                state[key] = {**state.get(key, {"id": key}), **values}
        else:
            spec, changes = arg
            matched = [key for key, data in state.items()
                       if _matches(data, spec)]
            assert table.update(_predicate(spec), changes) == len(matched)
            for key in matched:
                state[key] = {**state[key], **changes}
    for spec in specs:
        expected = sorted((key for key, data in state.items()
                           if _matches(data, spec)), key=str)
        assert table.scan(_predicate(spec)) == [state[key]
                                                for key in expected]
        assert table.sum("a", _predicate(spec)) == sum(
            state[key].get("a") or 0 for key in expected)
    assert table.scan() == [state[key] for key in sorted(state, key=str)]
    for column in INDEXED:
        for value in VALUES:
            assert table.indexes[column].get(value, set()) == {
                key for key, data in state.items()
                if data.get(column) == value}


# ---------------------------------------------------------------------------
# the dashboard's one-snapshot property is one kernel step
# ---------------------------------------------------------------------------

class TestSnapshotIsolation:
    def test_snapshot_is_stable_across_concurrent_commits(self, monkeypatch):
        """The seller-dashboard criterion (C4): both queries read one
        state.  Each dashboard runs its sum and its scan in the same
        kernel step, so no checkout, return or delivery write can land
        between them.  ``Environment.events_processed`` is only added up
        when ``run()`` returns, so the test counts the kernel's
        dispatches itself, one per heap or same-tick pop, and checks the
        total against it."""
        dispatched = [0]
        heappop = environment._heappop

        def counting_heappop(queue):
            dispatched[0] += 1
            return heappop(queue)

        class CountingBucket(collections.deque):
            def popleft(self):
                dispatched[0] += 1
                return super().popleft()

        monkeypatch.setattr(environment, "_heappop", counting_heappop)
        calls = []

        def build(env, config):
            env._bucket = CountingBucket()
            app = CustomizedOrleansApp(env, config)
            for name in ("upsert", "update", "sum", "scan"):
                method = getattr(app.sql, name)

                def record(*args, _name=name, _method=method):
                    result = _method(*args)
                    calls.append((_name, dispatched[0], args, result))
                    return result
                setattr(app.sql, name, record)
            return app

        run = run_scenario("baseline", app=build, seed=5,
                           duration_scale=0.3, audit=False)
        assert dispatched[0] == run.env.events_processed
        dashboards = []
        for index, (name, step, args, amount) in enumerate(calls):
            if name == "sum":
                scan = next(call for call in calls[index + 1:]
                            if call[0] == "scan" and call[2][0] is args[1])
                dashboards.append((step, scan[1], amount, scan[3]))
        writes = [step for name, step, _, _ in calls
                  if name in ("upsert", "update")]
        assert len(dashboards) > 20 and len(writes) > 50
        # Writes land between dashboards, not only before or after them.
        first, last = dashboards[0][0], dashboards[-1][0]
        assert sum(first < step < last for step in writes) > 20
        for sum_step, scan_step, amount, rows in dashboards:
            assert sum_step == scan_step
            assert amount == sum(row["amount_cents"] for row in rows)

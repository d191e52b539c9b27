"""Derived structures follow row deltas: carried ≡ built from scratch.

``Table`` keeps its hash indexes, interval indexes, column store,
change-point sets and row-position map valid across mutations by
applying each primitive's row delta to them (one rule, in the ``Table``
docstring).  The property here: after *any* sequence of primitives —
interleaved with savepoints, rollbacks and a second MVCC session — every
structure a reader can obtain equals a from-scratch build over the same
rows, and a bucket or hit list a reader fetched *before* a step is
unchanged after it.  Three mutants (a skipped position shift, a skipped
NULL count, an in-place bucket append) must each fail the property.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine import interval_index, storage
from repro.sqlengine.errors import SqlError
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType
from repro.sqlengine.values import Date, Null, sort_key

K, C, F, B, E = range(5)

# declared-type values (survive coercion) and raw ones only append_row /
# update_rows can place (they store what they are given, prepared or
# not): an INTEGER = FLOAT key, a bool, a blank-padded CHAR key, an int
# in the FLOAT column, a non-Date bound and two values that degrade
# their vector
CLEAN = {
    K: [0, 1, 2, Null],
    C: ["a", "a   ", "b", Null],
    F: [1.0, 2.5, Null],
    B: [Date(100), Date(103), Date(106), Null],
    E: [Date(104), Date(108), Date(3652059), Null],
}
RAW = {
    K: CLEAN[K] + [1.0, True, 2 ** 70, "x"],
    C: CLEAN[C] + ["b ", 7],
    F: CLEAN[F] + [1, "y"],
    B: CLEAN[B] + ["2010-01-01"],
    E: CLEAN[E] + ["2010-01-01"],
}


def values(pool):
    return st.tuples(*(st.sampled_from(pool[column]) for column in range(5)))


small = st.integers(0, 7)
OPS = st.one_of(
    st.tuples(st.just("insert"), values(CLEAN)),
    st.tuples(st.just("insert"), values(CLEAN)),
    st.tuples(st.just("append_row"), values(RAW)),
    st.tuples(st.just("update_cell"), small, st.integers(0, 4), small),
    st.tuples(st.just("update_row"), small, values(RAW)),
    st.tuples(st.just("update_rows"), st.integers(0, 2), st.integers(0, 4), small),
    st.tuples(st.just("update_fails"), st.integers(0, 2)),
    st.tuples(st.just("delete_rows"), st.sampled_from(["key", "one", "one", "all"]), small),
    st.tuples(st.just("replace_rows"), small),
    st.tuples(st.sampled_from(
        ["empty", "add_column", "hand_edit", "hand_edit_unversioned"]
    )),
    st.tuples(st.sampled_from(
        ["begin", "commit", "rollback", "savepoint", "savepoint", "rollback_to"]
    )),
    st.tuples(st.sampled_from(["session_begin", "session_end", "session_read"])),
    st.tuples(st.just("forget"), small),
    st.tuples(st.just("unobserved"), st.integers(1, 4)),
)
SEQUENCES = st.lists(OPS, min_size=4, max_size=40)


def make_db() -> tuple[Database, Table]:
    db = Database()
    table = Table("t", [
        Column("k", SqlType("INTEGER")),
        Column("c", SqlType("CHAR", length=4)),
        Column("f", SqlType("FLOAT")),
        Column("b", SqlType("DATE")),
        Column("e", SqlType("DATE")),
    ])
    table.declare_interval("b", "e")
    db.catalog.add_table(table)
    return db, table


def ids(rows) -> list[int]:
    return list(map(id, rows))


PROBES = [(99, 100), (100, 101), (103, 105), (106, 104), (110, 109), (4000000, 1)]


def image(table: Table) -> dict:
    """Everything a reader can obtain from ``table``'s structures."""
    out: dict = {}
    for column in range(len(table.columns)):
        out["hash", column] = {
            key: ids(bucket) for key, bucket in table.hash_index(column).items()
        }
    if table.interval_pairs:
        begin, end = map(table.column_index, table.interval_pairs[0])
        index = table.interval_index(begin, end)
        out["interval"] = (
            index.entry_count, index.total_rows, index._begins, index._positions,
            index._ends, ids(index._rows),
            [ids(index.search(*probe)) for probe in PROBES],
            [index.search_positions(*probe) for probe in PROBES],
            # begin ranges without an end bound: NULL-ended rows qualify
            [
                index.search_positions(begin_max, None, begin_min)
                for begin_min, begin_max in ((100, 104), (None, 103), (105, None))
            ],
            [ids(index.stab(point)) for point in (100, 103, 107)],
            [ids(index.overlaps(lo, hi)) for lo, hi in ((100, 104), (105, 200))],
        )
        out["change_points"] = table.change_points(begin, end)
    store = table.column_store()
    out["columnar"] = (store.row_count, [
        (v.kind, list(v.data), bytes(v.valid), v.nulls, v.degraded)
        for v in store.vectors
    ])
    out["positions"] = dict(table.row_positions())
    return out


def assert_from_scratch(table: Table) -> None:
    fresh = Table("fresh", table.columns)
    fresh.rows = table.rows  # the same row objects: buckets compare by identity
    fresh.interval_pairs = table.interval_pairs
    carried, built = image(table), image(fresh)
    for key in built:
        assert carried[key] == built[key], key


def held_by_a_reader(table: Table) -> list[tuple[list, list[int]]]:
    """Buckets and hit lists a reader fetched, with their contents now."""
    held = [bucket for bucket in table.hash_index(K).values()]
    held += [bucket for bucket in table.hash_index(C).values()]
    index = table.interval_index(B, E)
    held += [index.search(*PROBES[2]), index.stab(103), index.search_positions(*PROBES[2])]
    return [(fetched, list(fetched)) for fetched in held]


def run(ops) -> None:
    db, table = make_db()
    root = db.root_txn
    session = db.create_session("reader")
    savepoints = 0

    def pick(n: int):
        return table.rows[n % len(table.rows)] if table.rows else None

    def wide(values) -> list:
        return list(values) + [5] * (len(table.columns) - 5)

    def mutate(op) -> None:
        name = op[0]
        if name == "insert":
            table.insert(wide(op[1]))
        elif name == "append_row":
            table.append_row(wide(op[1]))
        elif name == "update_cell":
            row = pick(op[1])
            if row is not None:
                pool = RAW[op[2]]
                table.update_rows([row], [[(op[2], pool[op[3] % len(pool)])]])
        elif name == "update_row":
            # every cell of one row, as a current UPDATE overwrites a
            # version born at its point
            row = pick(op[1])
            if row is not None:
                table.update_rows([row], [list(enumerate(wide(op[2])))])
        elif name == "update_rows":
            pool = CLEAN[op[2]]
            value = pool[op[3] % len(pool)]
            rows = [row for row in table.rows if row[K] == op[1]]
            table.update_rows(rows, [[(op[2], value)]] * len(rows))
        elif name == "update_fails":
            # coercion fails on the second match: every row's cells are
            # prepared before any is written, so not even the first is
            # overwritten
            rows = [row for row in table.rows if row[K] == op[1]]
            before = [list(row) for row in rows]
            try:
                cells = [table.prepare_cells([F], [9.5])] + [
                    table.prepare_cells([B], ["not a date"]) for _ in rows[1:]
                ]
                table.update_rows(rows, cells)
            finally:
                assert len(rows) < 2 or [list(row) for row in rows] == before
        elif name == "delete_rows":
            if op[1] == "key":
                table.delete_rows([row for row in table.rows if row[K] == op[2] % 3])
            elif op[1] == "one":
                doomed = pick(op[2])
                table.delete_rows([] if doomed is None else [doomed])
            else:
                table.delete_rows(list(table.rows))
        elif name == "replace_rows":
            rows = table.rows[::-1]
            table.replace_rows(rows[op[1] % 3:])
        elif name == "empty":
            table.replace_rows([])
        elif name == "add_column":
            if len(table.columns) < 7:
                name = f"x{len(table.columns)}"
                table.add_column(Column(name, SqlType("INTEGER")), 5)

    unobserved = 0
    for op in ops:
        # no reader between some steps: structures stay as the writes
        # left them (stale tags included) instead of being refreshed
        unobserved -= 1
        held = held_by_a_reader(table) if unobserved < 0 else []
        name = op[0]
        if name == "unobserved":
            unobserved = op[1]
        elif name == "hand_edit":
            table.rows.append(wide([1, "a", 1.0, Date(101), Date(105)]))
            table.version += 1
        elif name == "hand_edit_unversioned":
            # a reader sees the stale structures until the next primitive
            # (as it always did); from then on they must be right again
            table.rows.append(wide([1, "a", 1.0, Date(101), Date(105)]))
            root.run_atomic(
                lambda: table.insert(wide([1, "a", 1.0, Date(102), Date(104)]))
            )
        elif name == "begin":
            if not root.explicit:
                root.begin()
        elif name == "commit":
            if root.explicit:
                root.commit()
                savepoints = 0
        elif name == "rollback":
            if root.explicit:
                root.rollback()
                savepoints = 0
        elif name == "savepoint":
            if root.explicit:
                savepoints += 1
                root.savepoint(f"s{savepoints}")
        elif name == "rollback_to":
            if savepoints:
                root.rollback_to_savepoint(f"s{savepoints}")
        elif name == "session_begin":
            if not session.explicit:
                db.activate_txn(session)
                session.begin()
                db.activate_txn(root)
        elif name == "session_end":
            if session.explicit:
                db.activate_txn(session)
                session.rollback()
                db.activate_txn(root)
        elif name == "session_read":
            # a snapshot view owns its structures
            db.activate_txn(session)
            assert_from_scratch(db.read_table("t"))
            db.activate_txn(root)
        elif name == "forget":
            keys = list(table._derived)
            if keys:
                del table._derived[keys[op[1] % len(keys)]]
        else:
            try:
                root.run_atomic(lambda: mutate(op))
            except SqlError:
                pass  # the statement rolled back: structures must follow
        if unobserved >= 0:
            continue
        assert_from_scratch(table)
        for fetched, contents in held:
            assert len(fetched) == len(contents)
            assert all(now is then for now, then in zip(fetched, contents))
    db.close_session(session)


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=SEQUENCES)
def test_structures_follow_every_primitive(ops):
    run(ops)


def test_the_written_out_case():
    """One fixed sequence through every delta kind (readable failure)."""
    run([
        ("insert", (1, "a", 1.0, Date(100), Date(104))),
        ("insert", (1, "a   ", 2.5, Date(103), Date(3652059))),
        ("append_row", (1.0, "b", 1, Date(106), Null)),
        ("append_row", (Null, Null, Null, "2010-01-01", Date(108))),
        ("update_cell", 1, E, 1),
        ("begin",), ("savepoint",),
        ("update_row", 0, (2, "b ", Null, Date(100), Date(108))),
        ("delete_rows", "one", 1),
        ("unobserved", 2),  # the version climbs back over other rows
        ("rollback_to",),
        ("insert", (0, "b", 2.5, Date(106), Date(108))),
        ("update_rows", 1, F, 1),
        ("session_begin",),
        ("delete_rows", "key", 1),
        ("commit",),
        ("session_read",),
        ("append_row", (2 ** 70, "a", 1.0, Date(100), Date(104))),
        ("update_cell", 0, K, 0),
        ("empty",),
        ("session_end",),
    ])


# -- the property must notice a broken delta ----------------------------------


def _no_position_shift(self, doomed):
    gone = set(doomed)
    keep = [at for at, p in enumerate(self._positions) if p not in gone]
    for name in ("_begins", "_positions", "_ends", "_rows"):
        setattr(self, name, [getattr(self, name)[at] for at in keep])
    self.entry_count = len(keep)
    self.total_rows -= len(doomed)
    self._tree = None


def _no_null_count(self, position, value):
    if self.degraded:
        return False
    self.append(value)
    if self.degraded:
        return False
    if value is Null:
        self.nulls -= 1  # undo append's count: the slot's old state is ignored
    self.data[position] = self.data.pop()
    self.valid[position] = self.valid.pop()
    return True


_real_append_delta = storage._append_delta


def _bucket_grown_in_place(key, structure, row, position):
    if key[0] == "hash" and row[key[1]] is not Null:
        structure.setdefault(sort_key(row[key[1]]), []).append(row)
        return structure
    return _real_append_delta(key, structure, row, position)


@pytest.mark.parametrize("target,name,mutant", [
    (interval_index.IntervalIndex, "remove", _no_position_shift),
    (storage.ColumnVector, "set", _no_null_count),
    (storage, "_append_delta", _bucket_grown_in_place),
])
def test_a_broken_delta_fails_the_property(monkeypatch, target, name, mutant):
    monkeypatch.setattr(target, name, mutant)
    prop = settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )(given(ops=SEQUENCES)(run))
    with pytest.raises(AssertionError):
        prop()


# -- writes under a reader, writes under a write ------------------------------


def _self_feeding_table() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, x INTEGER)")
    db.execute("INSERT INTO t VALUES (1, 0), (1, 1), (2, 9), (1, 2)")
    db.execute("""
        CREATE FUNCTION f (x INTEGER) RETURNS INTEGER
        MODIFIES SQL DATA LANGUAGE SQL
        BEGIN
          IF (SELECT COUNT(*) FROM t) < 8 THEN
            INSERT INTO t VALUES (1, x + 10);
          END IF;
          RETURN x;
        END""")
    return db


def test_a_hash_probe_never_sees_rows_appended_under_it():
    """``f`` inserts a ``k = 1`` row per call: the probe's bucket was
    fetched before the first call and is replaced, not grown."""
    db = _self_feeding_table()
    result = db.execute("SELECT f(x) FROM t WHERE k = 1")
    assert [list(row) for row in result.rows] == [[0], [1], [2]]
    assert len(db.table("t").rows) == 7
    assert_from_scratch(db.table("t"))


def test_a_scan_visits_the_rows_appended_under_it():
    """The same statement through the scan path walks the live row
    list, appended rows included, until ``f`` stops inserting."""
    db = _self_feeding_table()
    result = db.execute("SELECT f(x) FROM t WHERE k + 0 = 1")
    assert [list(row) for row in result.rows] == [
        [0], [1], [2], [10], [11], [12], [20],
    ]
    assert_from_scratch(db.table("t"))


def test_a_write_nested_in_a_write_carries_nothing():
    """A SET expression or predicate that itself mutates the target runs
    while the statement is still matching and staging; rows are located
    when they are written, after it, so the structures follow.  Deleting
    a row the statement matched is a typed error that rolls back."""
    db = _self_feeding_table()
    table = db.table("t")
    image(table)
    # f inserts a k = 1 row per staged value; the three matches were
    # found before the first call
    assert db.execute("UPDATE t SET x = f(x) + 100 WHERE k = 1") == 3
    assert [row[1] for row in table.rows] == [100, 101, 9, 102, 10, 11, 12]
    assert_from_scratch(table)
    assert db.execute("DELETE FROM t WHERE k = 2 AND f(x) = 9") == 1
    assert [row[1] for row in table.rows] == [100, 101, 102, 10, 11, 12, 19]
    assert_from_scratch(table)
    db.execute("""
        CREATE FUNCTION g (x INTEGER) RETURNS INTEGER
        MODIFIES SQL DATA LANGUAGE SQL
        BEGIN
          DELETE FROM t WHERE x = 100;
          RETURN x;
        END""")
    rows = [list(row) for row in table.rows]
    with pytest.raises(SqlError, match="not resident"):
        db.execute("UPDATE t SET x = g(x) WHERE k = 1")
    assert [list(row) for row in table.rows] == rows
    assert_from_scratch(table)

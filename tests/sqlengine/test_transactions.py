"""Explicit transactions, savepoints, and statement-level atomicity."""

from __future__ import annotations

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import ExecutionError, SqlError, TypeError_
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.types import SqlType

from tests.faultinject import assert_snapshot_equal, snapshot_db


@pytest.fixture
def db_t(db: Database) -> Database:
    db.execute("CREATE TABLE t (a INTEGER, b CHAR(10))")
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    return db


def rows(db: Database, name: str = "t"):
    return db.table(name).rows


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql,action,name",
    [
        ("BEGIN", "BEGIN", None),
        ("BEGIN WORK", "BEGIN", None),
        ("BEGIN TRANSACTION", "BEGIN", None),
        ("START TRANSACTION", "BEGIN", None),
        ("COMMIT", "COMMIT", None),
        ("COMMIT WORK", "COMMIT", None),
        ("ROLLBACK", "ROLLBACK", None),
        ("ROLLBACK WORK", "ROLLBACK", None),
        ("SAVEPOINT sp1", "SAVEPOINT", "sp1"),
        ("RELEASE SAVEPOINT sp1", "RELEASE SAVEPOINT", "sp1"),
        ("ROLLBACK TO sp1", "ROLLBACK TO SAVEPOINT", "sp1"),
        ("ROLLBACK TO SAVEPOINT sp1", "ROLLBACK TO SAVEPOINT", "sp1"),
    ],
)
def test_parse_transaction_statements(sql, action, name):
    stmt = parse_statement(sql)
    assert stmt.action == action
    assert stmt.name == name
    # round-trips through the renderer
    again = parse_statement(stmt.to_sql())
    assert again.action == action and again.name == name


def test_begin_still_opens_a_compound_in_routines(db: Database):
    # BEGIN followed by anything but ; / WORK / TRANSACTION is PSM
    db.execute(
        "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL"
        " BEGIN RETURN 41 + 1; END"
    )
    assert db.query("SELECT f()").rows == [[42]]


def test_to_and_work_remain_usable_as_identifiers(db: Database):
    db.execute("CREATE TABLE jobs (work INTEGER)")
    db.execute("INSERT INTO jobs VALUES (7)")
    assert db.query("SELECT work FROM jobs").rows == [[7]]


# ---------------------------------------------------------------------------
# explicit transactions
# ---------------------------------------------------------------------------


def test_commit_keeps_effects(db_t: Database):
    db_t.execute("BEGIN")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    db_t.execute("COMMIT")
    assert [1, 2, 3] == sorted(row[0] for row in rows(db_t))
    assert not db_t.txn.explicit and db_t.txn.log == []


def test_rollback_restores_rows_and_versions(db_t: Database):
    table = db_t.table("t")
    before = snapshot_db(db_t)
    db_t.execute("BEGIN")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    db_t.execute("UPDATE t SET b = 'x' WHERE a = 1")
    db_t.execute("DELETE FROM t WHERE a = 2")
    assert sorted(row[0] for row in table.rows) == [1, 3]
    db_t.execute("ROLLBACK")
    assert_snapshot_equal(db_t, before)
    assert db_t.obs.value("engine.rollbacks") == 1


def test_rollback_restores_ddl(db_t: Database):
    before = snapshot_db(db_t)
    db_t.execute("BEGIN")
    db_t.execute("CREATE TABLE extra (x INTEGER)")
    db_t.execute("INSERT INTO extra VALUES (1)")
    db_t.execute("DROP TABLE t")
    db_t.execute("CREATE VIEW v AS SELECT x FROM extra")
    db_t.execute(
        "CREATE FUNCTION g () RETURNS INTEGER LANGUAGE SQL"
        " BEGIN RETURN 1; END"
    )
    db_t.execute("ROLLBACK")
    assert_snapshot_equal(db_t, before)
    # the dropped table is back with its rows intact
    assert sorted(row[0] for row in rows(db_t)) == [1, 2]


def test_savepoint_partial_rollback(db_t: Database):
    db_t.execute("BEGIN")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    db_t.execute("SAVEPOINT sp1")
    db_t.execute("INSERT INTO t VALUES (4, 'four')")
    db_t.execute("ROLLBACK TO SAVEPOINT sp1")
    assert sorted(row[0] for row in rows(db_t)) == [1, 2, 3]
    # the savepoint survives ROLLBACK TO and can be reused
    db_t.execute("INSERT INTO t VALUES (5, 'five')")
    db_t.execute("ROLLBACK TO sp1")
    assert sorted(row[0] for row in rows(db_t)) == [1, 2, 3]
    db_t.execute("COMMIT")
    assert sorted(row[0] for row in rows(db_t)) == [1, 2, 3]


def test_release_savepoint_keeps_effects(db_t: Database):
    db_t.execute("BEGIN")
    db_t.execute("SAVEPOINT sp1")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    db_t.execute("RELEASE SAVEPOINT sp1")
    with pytest.raises(ExecutionError, match="no such savepoint"):
        db_t.execute("ROLLBACK TO sp1")
    db_t.execute("COMMIT")
    assert sorted(row[0] for row in rows(db_t)) == [1, 2, 3]


def test_nested_savepoints(db_t: Database):
    db_t.execute("BEGIN")
    db_t.execute("SAVEPOINT outer_sp")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    db_t.execute("SAVEPOINT inner_sp")
    db_t.execute("INSERT INTO t VALUES (4, 'four')")
    db_t.execute("ROLLBACK TO outer_sp")
    assert sorted(row[0] for row in rows(db_t)) == [1, 2]
    # rolling back to the outer savepoint destroyed the inner one
    with pytest.raises(ExecutionError, match="no such savepoint"):
        db_t.execute("ROLLBACK TO inner_sp")
    db_t.execute("ROLLBACK")


@pytest.mark.parametrize(
    "sql,match",
    [
        ("COMMIT", "no transaction"),
        ("ROLLBACK", "no transaction"),
        ("SAVEPOINT sp1", "requires an active transaction"),
    ],
)
def test_transaction_statements_require_context(db_t: Database, sql, match):
    with pytest.raises(ExecutionError, match=match):
        db_t.execute(sql)


def test_begin_twice_rejected(db_t: Database):
    db_t.execute("BEGIN")
    with pytest.raises(ExecutionError, match="already in progress"):
        db_t.execute("BEGIN")
    db_t.execute("ROLLBACK")


def test_failed_statement_inside_transaction_rolls_back_only_itself(db_t):
    db_t.execute("BEGIN")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    with pytest.raises(SqlError):
        db_t.execute("INSERT INTO t VALUES (4, 'four'), ('bad', 'x')")
    # the good insert survives; the failed statement left nothing
    assert sorted(row[0] for row in rows(db_t)) == [1, 2, 3]
    db_t.execute("COMMIT")
    assert sorted(row[0] for row in rows(db_t)) == [1, 2, 3]


# ---------------------------------------------------------------------------
# statement-level atomicity (no explicit transaction)
# ---------------------------------------------------------------------------


def test_multi_row_insert_is_all_or_nothing(db_t: Database):
    before = snapshot_db(db_t)
    with pytest.raises(SqlError):
        db_t.execute("INSERT INTO t VALUES (3, 'three'), ('oops', 'x'), (5, 'five')")
    assert_snapshot_equal(db_t, before)


def test_multi_row_insert_not_null_is_all_or_nothing(db: Database):
    db.execute("CREATE TABLE n (a INTEGER NOT NULL)")
    before = snapshot_db(db)
    with pytest.raises(SqlError):
        db.execute("INSERT INTO n VALUES (1), (NULL), (3)")
    assert_snapshot_equal(db, before)
    db.execute("INSERT INTO n VALUES (1), (2)")
    assert rows(db, "n") == [[1], [2]]


def test_update_where_coerces_all_values_before_writing():
    table = Table("t", [Column("a", SqlType("INTEGER")), Column("b", SqlType("INTEGER"))])
    table.insert([1, 2])
    table.insert([3, 4])
    with pytest.raises(TypeError_):
        # what the match plan does: prepare every row's cells, then write
        cells = [table.prepare_cells([0, 1], v) for v in ([99, 7], [99, "nope"])]
        table.update_rows(table.rows, cells)
    # neither the first assignment nor the first row may have been written
    assert table.rows == [[1, 2], [3, 4]]


def test_update_statement_failure_leaves_prior_rows(db_t: Database):
    # the second row's assignment divides by zero after the first row
    # was already updated; the statement guard reverts both
    before = snapshot_db(db_t)
    with pytest.raises(SqlError):
        db_t.execute("UPDATE t SET b = CAST(10 / (a - 2) AS CHAR(10))")
    assert_snapshot_equal(db_t, before)


# ---------------------------------------------------------------------------
# interplay with the bind/plan layer
# ---------------------------------------------------------------------------


def test_rollback_restores_plan_cache_validity(db_t: Database):
    stmt = parse_statement("SELECT b FROM t WHERE a = 1")
    db_t.execute_ast(stmt)  # compiles
    hits0 = db_t.obs.value("engine.plan_cache.hits")
    db_t.execute_ast(stmt)
    assert db_t.obs.value("engine.plan_cache.hits") == hits0 + 1
    db_t.execute("BEGIN")
    db_t.execute("UPDATE t SET b = 'changed' WHERE a = 1")
    db_t.execute("ROLLBACK")
    # table.version was restored, so the compiled plan still hits
    db_t.execute_ast(stmt)
    assert db_t.obs.value("engine.plan_cache.hits") == hits0 + 2
    assert db_t.query("SELECT b FROM t WHERE a = 1").rows == [["one"]]


def test_rollback_evicts_plans_bound_during_the_window(db_t: Database):
    db_t.execute("BEGIN")
    db_t.execute("CREATE TABLE w (x INTEGER)")
    db_t.execute("INSERT INTO w VALUES (1)")
    stmt = parse_statement("SELECT x FROM w")
    db_t.execute_ast(stmt)  # plan bound at the in-transaction schema version
    db_t.execute("ROLLBACK")
    # later DDL pushes the schema version back up to the same number;
    # the stale plan must not revalidate against the recreated table
    db_t.execute("CREATE TABLE w (x CHAR(5))")
    db_t.execute("INSERT INTO w VALUES ('abc')")
    assert db_t.execute_ast(stmt).rows == [["abc"]]


def test_rollback_restores_hash_index_consistency(db_t: Database):
    table = db_t.table("t")
    index_col = table.column_index("a")
    table.hash_index(index_col)  # built at the pre-transaction version
    db_t.execute("BEGIN")
    db_t.execute("INSERT INTO t VALUES (3, 'three')")
    table.hash_index(index_col)  # rebuilt over three rows
    db_t.execute("ROLLBACK")
    # the index built during the window is gone; a fresh build sees two rows
    index = table.hash_index(index_col)
    assert sum(len(bucket) for bucket in index.values()) == 2

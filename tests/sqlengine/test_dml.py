"""INSERT / UPDATE / DELETE and DDL execution tests."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError, ExecutionError, TypeError_
from repro.sqlengine.values import Null


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b CHAR(10))")
    return db


class TestInsert:
    def test_values_returns_count(self, db):
        assert db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')") == 2

    def test_column_list_fills_nulls(self, db):
        db.execute("INSERT INTO t (a) VALUES (7)")
        assert db.query("SELECT b FROM t").scalar() is Null

    def test_insert_select(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("CREATE TABLE u (a INTEGER, b CHAR(10))")
        assert db.execute("INSERT INTO u SELECT a, b FROM t") == 1

    def test_insert_coerces(self, db):
        db.execute("INSERT INTO t VALUES ('5', 42)")
        assert db.query("SELECT a, b FROM t").rows == [[5, "42"]]

    def test_rows_written_counter(self, db):
        before = db.obs.sum_prefix("engine.rows_written.")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.obs.sum_prefix("engine.rows_written.") == before + 1


class TestUpdate:
    def test_update_with_where(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute("UPDATE t SET b = 'z' WHERE a = 1") == 1
        assert sorted(r[0] for r in db.query("SELECT b FROM t").rows) == ["y", "z"]
        assert db.query("SELECT b FROM t WHERE a = 1").scalar() == "z"

    def test_update_references_old_values(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("UPDATE t SET a = a + 10")
        assert db.query("SELECT a FROM t").scalar() == 11

    def test_update_with_alias(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("UPDATE t x SET b = 'q' WHERE x.a = 1")
        assert db.query("SELECT b FROM t").scalar() == "q"

    def test_swap_semantics(self, db):
        db.execute("CREATE TABLE s (x INTEGER, y INTEGER)")
        db.execute("INSERT INTO s VALUES (1, 2)")
        db.execute("UPDATE s SET x = y, y = x")
        assert db.query("SELECT x, y FROM s").rows == [[2, 1]]


    # match-then-write: the rows are found and every new value is
    # evaluated before the first write, so a subquery over the target
    # sees the table as the statement found it (SQL's semantics)

    def test_where_subquery_on_the_target_sees_no_updated_row(self, db):
        db.execute("INSERT INTO t (a) VALUES (3), (3), (1)")
        count = db.execute("UPDATE t SET a = 0 WHERE a = (SELECT MAX(a) FROM t)")
        assert count == 2
        assert [r[0] for r in db.table("t").rows] == [0, 0, 1]

    def test_set_subquery_on_the_target_sees_no_updated_row(self, db):
        db.execute("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert db.execute("UPDATE t SET a = (SELECT MAX(a) FROM t) + 1") == 3
        assert [r[0] for r in db.table("t").rows] == [4, 4, 4]

    def test_coercion_failure_on_the_last_row_writes_nothing(self, db):
        db.execute("INSERT INTO t VALUES (1, '10'), (2, '20'), (3, 'x')")
        rollbacks = db.obs.value("engine.rollbacks")
        with pytest.raises(TypeError_):
            db.execute("UPDATE t SET a = b")
        assert db.table("t").rows == [[1, "10"], [2, "20"], [3, "x"]]
        # every value is staged before any is written: there was
        # nothing to undo
        assert db.obs.value("engine.rollbacks") == rollbacks

    def test_set_null_into_not_null_is_refused_like_insert(self, db):
        db.execute("CREATE TABLE n (id INTEGER NOT NULL, v INTEGER)")
        db.execute("INSERT INTO n VALUES (1, 1)")
        with pytest.raises(ExecutionError, match="NULL not allowed"):
            db.execute("INSERT INTO n VALUES (NULL, 2)")
        with pytest.raises(ExecutionError, match="NULL not allowed"):
            db.execute("UPDATE n SET id = NULL WHERE v = 1")
        assert db.table("n").rows == [[1, 1]]
        # the check is on the value stored, not on the column named
        assert db.execute("UPDATE n SET id = v + 1, v = NULL") == 1
        assert db.table("n").rows == [[2, Null]]

    def test_not_null_failure_on_the_last_row_writes_nothing(self, db):
        db.execute("CREATE TABLE n (id INTEGER NOT NULL, v INTEGER)")
        db.execute("INSERT INTO n VALUES (1, 1), (2, 2), (3, NULL)")
        with pytest.raises(ExecutionError):
            db.execute("UPDATE n SET id = v")
        assert db.table("n").rows == [[1, 1], [2, 2], [3, Null]]


class TestDelete:
    def test_delete_with_where(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute("DELETE FROM t WHERE a = 1") == 1
        assert len(db.query("SELECT * FROM t")) == 1

    def test_delete_all(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute("DELETE FROM t") == 2


    def test_where_subquery_on_the_target_sees_no_deleted_row(self, db):
        db.execute("INSERT INTO t (a) VALUES (3), (3), (1)")
        assert db.execute("DELETE FROM t WHERE a = (SELECT MAX(a) FROM t)") == 2
        assert [r[0] for r in db.table("t").rows] == [1]


class TestDdl:
    def test_create_table_as(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("CREATE TABLE copy AS (SELECT a, b FROM t)")
        assert db.query("SELECT a FROM copy").scalar() == 1

    def test_temporary_table_replaceable(self, db):
        db.execute("CREATE TEMPORARY TABLE tmp AS (SELECT 1 AS n)")
        db.execute("CREATE TEMPORARY TABLE tmp AS (SELECT 2 AS n)")
        assert db.query("SELECT n FROM tmp").scalar() == 2

    def test_duplicate_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (z INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM t")

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")

    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO t VALUES (1, 'x'); SELECT a FROM t;"
        )
        assert results[0] == 1
        assert results[1].rows == [[1]]

    def test_query_on_non_query_raises(self, db):
        with pytest.raises(TypeError):
            db.query("INSERT INTO t VALUES (1, 'x')")

    def test_modifier_requires_stratum(self, db):
        with pytest.raises(ExecutionError):
            db.execute("VALIDTIME SELECT a FROM t")

    def test_alter_validtime_requires_stratum(self, db):
        with pytest.raises(ExecutionError):
            db.execute("ALTER TABLE t ADD VALIDTIME")

"""The statement-plan cache: reuse and invalidation.

Plans are keyed by AST identity, so reuse requires executing the *same*
parsed statement object repeatedly — exactly what routine bodies and the
stratum's per-constant-period loop do.
"""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.parser import parse_statement


@pytest.fixture
def db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, name VARCHAR(10))")
    db.execute("INSERT INTO t VALUES (1, 'a')")
    db.execute("INSERT INTO t VALUES (2, 'b')")
    return db


def snapshot_diff(db, run):
    before = db.stats.snapshot()
    run()
    after = db.stats.snapshot()
    return {k: after[k] - before[k] for k in ("plans_compiled", "plan_cache_hits")}


class TestReuse:
    def test_repeated_execution_hits_cache(self, db):
        stmt = parse_statement("SELECT name FROM t WHERE id = 1")
        results = []
        diff = snapshot_diff(
            db, lambda: results.extend(db.execute_ast(stmt).rows for _ in range(3))
        )
        assert diff["plans_compiled"] == 1
        assert diff["plan_cache_hits"] == 2
        assert results == [[["a"]], [["a"]], [["a"]]]

    def test_snapshot_exposes_counters(self, db):
        snap = db.stats.snapshot()
        for key in (
            "plans_compiled",
            "plan_cache_hits",
            "transforms",
            "transform_cache_hits",
        ):
            assert key in snap

    def test_dml_plans_are_cached(self, db):
        stmt = parse_statement("UPDATE t SET name = 'x' WHERE id = 2")
        diff = snapshot_diff(
            db, lambda: [db.execute_ast(stmt) for _ in range(2)]
        )
        assert diff["plans_compiled"] == 1
        assert diff["plan_cache_hits"] == 1
        assert db.execute("SELECT name FROM t WHERE id = 2").rows == [["x"]]


class TestLruEviction:
    def test_hot_plan_survives_a_flood_of_cold_statements(self, db):
        """At capacity the least recently used plan goes, not every plan:
        a statement run now and then keeps its plan through 600 one-off
        statements (more than the 512 the cache holds)."""
        hot = parse_statement("SELECT name FROM t WHERE id = 1")
        db.execute_ast(hot)
        for n in range(601):
            if n % 100 == 0:
                compiled = db.obs.value("engine.plans_compiled")
                assert db.execute_ast(hot).rows == [["a"]]
                assert db.obs.value("engine.plans_compiled") == compiled
            db.execute(f"UPDATE t SET name = 'n{n}' WHERE id = 2")


class TestInvalidation:
    def test_drop_create_table_recompiles(self, db):
        stmt = parse_statement("SELECT name FROM t ORDER BY id")
        assert db.execute_ast(stmt).rows == [["a"], ["b"]]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER, name VARCHAR(10))")
        db.execute("INSERT INTO t VALUES (9, 'z')")
        diff = snapshot_diff(db, lambda: db.execute_ast(stmt))
        assert diff["plans_compiled"] == 1  # recompiled, not served stale
        assert db.execute_ast(stmt).rows == [["z"]]

    def test_column_change_never_serves_stale_rows(self, db):
        stmt = parse_statement("SELECT * FROM t WHERE id = 1")
        assert db.execute_ast(stmt).rows == [[1, "a"]]
        db.execute("DROP TABLE t")
        db.execute(
            "CREATE TABLE t (id INTEGER, name VARCHAR(10), extra INTEGER)"
        )
        db.execute("INSERT INTO t VALUES (1, 'a', 7)")
        assert db.execute_ast(stmt).rows == [[1, "a", 7]]

    def test_routine_redefinition_recompiles(self, db):
        db.execute(
            "CREATE FUNCTION f (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
            " BEGIN RETURN x + 1; END"
        )
        stmt = parse_statement("SELECT f(id) FROM t ORDER BY id")
        assert db.execute_ast(stmt).rows == [[2], [3]]
        db.execute("DROP FUNCTION f")
        db.execute(
            "CREATE FUNCTION f (x INTEGER) RETURNS INTEGER LANGUAGE SQL"
            " BEGIN RETURN x * 10; END"
        )
        diff = snapshot_diff(db, lambda: db.execute_ast(stmt))
        assert diff["plans_compiled"] == 1
        assert db.execute_ast(stmt).rows == [[10], [20]]

    def test_view_change_invalidates(self, db):
        db.execute("CREATE VIEW v AS (SELECT id FROM t WHERE id = 1)")
        stmt = parse_statement("SELECT id FROM v")
        assert db.execute_ast(stmt).rows == [[1]]
        db.execute("DROP VIEW v")
        db.execute("CREATE VIEW v AS (SELECT id FROM t WHERE id = 2)")
        assert db.execute_ast(stmt).rows == [[2]]


class TestPlanInvalidated:
    """Changes the schema version does not see (temporary tables are
    exempt from it) are caught by the plan's own validation, before it
    produces a row: the entry is dropped, the statement re-planned and
    re-run once — so a routine in the select list runs once per row."""

    @pytest.fixture
    def db(self, db):
        db.execute("CREATE TABLE log (id INTEGER)")
        db.execute(
            "CREATE FUNCTION noted (x INTEGER) RETURNS INTEGER MODIFIES SQL DATA"
            " LANGUAGE SQL BEGIN INSERT INTO log VALUES (x); RETURN x; END"
        )
        db.execute("CREATE TEMPORARY TABLE tt AS (SELECT id, id AS v FROM t)")
        return db

    def invalidated(self, db, run):
        before = db.obs.value("engine.plan_invalidated")
        logged = len(db.table("log").rows)
        result = run()
        return (
            result,
            db.obs.value("engine.plan_invalidated") - before,
            len(db.table("log").rows) - logged,
        )

    def test_temp_table_recreated_with_other_column_types(self, db):
        stmt = parse_statement("SELECT noted(tt.id), tt.v FROM tt WHERE tt.v >= 1")
        result, count, calls = self.invalidated(db, lambda: db.execute_ast(stmt))
        assert (result.rows, count, calls) == ([[1, 1], [2, 2]], 0, 2)
        # same column names, v now FLOAT: conjunct placement rests on the
        # declared value classes, so the plan must not survive this
        db.execute("CREATE TEMPORARY TABLE tt AS (SELECT id, id + 0.5 AS v FROM t)")
        result, count, calls = self.invalidated(db, lambda: db.execute_ast(stmt))
        assert (result.rows, count, calls) == ([[1, 1.5], [2, 2.5]], 1, 2)
        result, count, calls = self.invalidated(db, lambda: db.execute_ast(stmt))
        assert (result.rows, count, calls) == ([[1, 1.5], [2, 2.5]], 0, 2)

    def test_view_with_another_column_list(self, db):
        db.execute("CREATE VIEW w AS (SELECT * FROM tt)")
        stmt = parse_statement("SELECT noted(w.id), w.* FROM w")
        result, count, calls = self.invalidated(db, lambda: db.execute_ast(stmt))
        assert (result.columns, result.rows) == (
            ["c1", "id", "v"], [[1, 1, 1], [2, 2, 2]]
        )
        assert (count, calls) == (0, 2)
        # the view's column list changes underneath it, with no DDL the
        # schema version counts: the statement's plan and the view
        # body's plan are each invalidated once
        db.execute("CREATE TEMPORARY TABLE tt AS (SELECT id, name, id AS v FROM t)")
        result, count, calls = self.invalidated(db, lambda: db.execute_ast(stmt))
        assert (result.columns, result.rows) == (
            ["c1", "id", "name", "v"], [[1, 1, "a", 1], [2, 2, "b", 2]]
        )
        assert (count, calls) == (2, 2)
        # redefining the view itself is DDL: the schema version re-plans
        # the statement, nothing needs invalidating
        db.execute("DROP VIEW w")
        db.execute("CREATE VIEW w AS (SELECT v, id FROM tt)")
        compiled = db.obs.value("engine.plans_compiled")
        result, count, calls = self.invalidated(db, lambda: db.execute_ast(stmt))
        assert (result.columns, result.rows) == (
            ["c1", "v", "id"], [[1, 1, 1], [2, 2, 2]]
        )
        assert (count, calls) == (0, 2)
        assert db.obs.value("engine.plans_compiled") > compiled

    def test_a_second_invalidation_is_an_error_not_a_loop(self, db, monkeypatch):
        from repro.sqlengine import planner
        from repro.sqlengine.errors import ExecutionError, PlanInvalidated

        def never_valid(self, executor, env):
            raise PlanInvalidated(self.name)

        monkeypatch.setattr(planner._Scan, "validate", never_valid)
        with pytest.raises(ExecutionError, match="invalidated twice.*tt"):
            self.invalidated(db, lambda: db.execute("SELECT id FROM tt"))
        assert db.obs.value("engine.plan_invalidated") == 1

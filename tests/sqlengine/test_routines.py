"""PSM interpreter tests: functions, procedures, control flow, cursors."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import (
    CardinalityError,
    CursorError,
    RoutineError,
)
from repro.sqlengine.routines import RoutineInterpreter
from repro.sqlengine.values import Null
from tests.counters import routine_calls


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE nums (n INTEGER)")
    for i in range(1, 6):
        db.execute(f"INSERT INTO nums VALUES ({i})")
    return db


def define(db, sql):
    db.execute(sql)


class TestFunctions:
    def test_return_expression(self, db):
        define(db, "CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN x + 1; END")
        assert db.query("SELECT inc(4)").scalar() == 5

    def test_function_single_statement_body(self, db):
        define(db, "CREATE FUNCTION two () RETURNS INTEGER LANGUAGE SQL RETURN 2")
        assert db.query("SELECT two()").scalar() == 2

    def test_set_from_scalar_subquery(self, db):
        define(db, "CREATE FUNCTION top () RETURNS INTEGER READS SQL DATA"
                   " LANGUAGE SQL BEGIN DECLARE m INTEGER;"
                   " SET m = (SELECT MAX(n) FROM nums); RETURN m; END")
        assert db.query("SELECT top()").scalar() == 5

    def test_function_without_return_yields_null(self, db):
        define(db, "CREATE FUNCTION noop () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN DECLARE x INTEGER; SET x = 1; END")
        assert db.query("SELECT noop()").scalar() is Null

    def test_wrong_arity_raises(self, db):
        define(db, "CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN x + 1; END")
        with pytest.raises(RoutineError):
            db.query("SELECT inc(1, 2)")

    def test_return_coerced_to_declared_type(self, db):
        define(db, "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN RETURN '7'; END")
        assert db.query("SELECT f()").scalar() == 7

    def test_nested_function_calls(self, db):
        define(db, "CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN x + 1; END")
        define(db, "CREATE FUNCTION inc2 (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN inc(inc(x)); END")
        assert db.query("SELECT inc2(1)").scalar() == 3

    def test_recursion_depth_guard(self, db):
        define(db, "CREATE FUNCTION boom (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN boom(x + 1); END")
        with pytest.raises(RoutineError):
            db.query("SELECT boom(0)")

    def test_function_in_where_clause(self, db):
        define(db, "CREATE FUNCTION is_even (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN MOD(x, 2); END")
        result = db.query("SELECT n FROM nums WHERE is_even(n) = 0 ORDER BY n")
        assert [r[0] for r in result.rows] == [2, 4]

    def test_routine_call_counter(self, db):
        define(db, "CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER"
                   " LANGUAGE SQL BEGIN RETURN x + 1; END")
        before = routine_calls(db).get("inc", 0)
        db.query("SELECT inc(n) FROM nums")
        assert routine_calls(db)["inc"] == before + 5


class TestControlFlow:
    def test_while_with_iterate_and_leave(self, db):
        define(db, """
        CREATE FUNCTION spin () RETURNS INTEGER LANGUAGE SQL
        BEGIN
          DECLARE i INTEGER DEFAULT 0;
          DECLARE acc INTEGER DEFAULT 0;
          lp: WHILE i < 100 DO
            SET i = i + 1;
            IF i = 3 THEN ITERATE lp; END IF;
            IF i = 6 THEN LEAVE lp; END IF;
            SET acc = acc + i;
          END WHILE lp;
          RETURN acc;
        END
        """)
        # 1+2+4+5 = 12 (3 skipped, stops at 6)
        assert db.query("SELECT spin()").scalar() == 12

    def test_repeat_runs_at_least_once(self, db):
        define(db, """
        CREATE FUNCTION once () RETURNS INTEGER LANGUAGE SQL
        BEGIN
          DECLARE i INTEGER DEFAULT 100;
          REPEAT SET i = i + 1; UNTIL i > 0 END REPEAT;
          RETURN i;
        END
        """)
        assert db.query("SELECT once()").scalar() == 101

    def test_for_loop_over_query(self, db):
        define(db, """
        CREATE FUNCTION total () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE acc INTEGER DEFAULT 0;
          FOR rec AS SELECT n FROM nums DO
            SET acc = acc + rec.n;
          END FOR;
          RETURN acc;
        END
        """)
        assert db.query("SELECT total()").scalar() == 15

    def test_for_loop_unqualified_field_access(self, db):
        define(db, """
        CREATE FUNCTION total2 () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE acc INTEGER DEFAULT 0;
          FOR rec AS SELECT n FROM nums DO
            SET acc = acc + n;
          END FOR;
          RETURN acc;
        END
        """)
        assert db.query("SELECT total2()").scalar() == 15

    def test_labeled_for_with_leave(self, db):
        define(db, """
        CREATE FUNCTION first_big () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE found INTEGER DEFAULT 0;
          f1: FOR rec AS SELECT n FROM nums ORDER BY n DO
            IF rec.n > 3 THEN
              SET found = rec.n;
              LEAVE f1;
            END IF;
          END FOR f1;
          RETURN found;
        END
        """)
        assert db.query("SELECT first_big()").scalar() == 4

    def test_case_statement_simple_form(self, db):
        define(db, """
        CREATE FUNCTION classify (x INTEGER) RETURNS CHAR(10) LANGUAGE SQL
        BEGIN
          DECLARE r CHAR(10);
          CASE x
            WHEN 1 THEN SET r = 'one';
            WHEN 2 THEN SET r = 'two';
            ELSE SET r = 'many';
          END CASE;
          RETURN r;
        END
        """)
        assert db.query("SELECT classify(2)").scalar() == "two"
        assert db.query("SELECT classify(9)").scalar() == "many"

    def test_nested_compound_scoping(self, db):
        define(db, """
        CREATE FUNCTION scoped () RETURNS INTEGER LANGUAGE SQL
        BEGIN
          DECLARE x INTEGER DEFAULT 1;
          BEGIN
            DECLARE x INTEGER DEFAULT 10;
            SET x = x + 1;
          END;
          RETURN x;
        END
        """)
        assert db.query("SELECT scoped()").scalar() == 1

    def test_select_into(self, db):
        define(db, """
        CREATE FUNCTION pick () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE v INTEGER;
          SELECT n INTO v FROM nums WHERE n = 3;
          RETURN v;
        END
        """)
        assert db.query("SELECT pick()").scalar() == 3

    def test_select_into_multi_row_raises(self, db):
        define(db, """
        CREATE FUNCTION bad () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE v INTEGER;
          SELECT n INTO v FROM nums;
          RETURN v;
        END
        """)
        with pytest.raises(CardinalityError):
            db.query("SELECT bad()")

    def test_row_set(self, db):
        define(db, """
        CREATE FUNCTION span () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE lo INTEGER;
          DECLARE hi INTEGER;
          SET (lo, hi) = (SELECT MIN(n), MAX(n) FROM nums);
          RETURN hi - lo;
        END
        """)
        assert db.query("SELECT span()").scalar() == 4


class TestProcedures:
    def test_out_parameter(self, db):
        define(db, "CREATE PROCEDURE give (OUT v INTEGER) LANGUAGE SQL"
                   " BEGIN SET v = 42; END")
        define(db, "CREATE FUNCTION wrap () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN DECLARE x INTEGER; CALL give(x); RETURN x; END")
        assert db.query("SELECT wrap()").scalar() == 42

    def test_inout_parameter(self, db):
        define(db, "CREATE PROCEDURE bump (INOUT v INTEGER) LANGUAGE SQL"
                   " BEGIN SET v = v + 1; END")
        define(db, "CREATE FUNCTION wrap () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN DECLARE x INTEGER DEFAULT 9; CALL bump(x); RETURN x; END")
        assert db.query("SELECT wrap()").scalar() == 10

    def test_out_argument_must_be_variable(self, db):
        define(db, "CREATE PROCEDURE give (OUT v INTEGER) LANGUAGE SQL"
                   " BEGIN SET v = 42; END")
        with pytest.raises(RoutineError):
            db.execute("CALL give(1)")

    def test_procedure_result_sets(self, db):
        define(db, "CREATE PROCEDURE listing () LANGUAGE SQL BEGIN"
                   " SELECT n FROM nums WHERE n < 3; SELECT n FROM nums WHERE n > 3; END")
        results = db.execute("CALL listing()")
        assert len(results) == 2
        assert [r[0] for r in results[0].rows] == [1, 2]

    def test_nested_call_result_sets_propagate(self, db):
        define(db, "CREATE PROCEDURE inner_p () LANGUAGE SQL BEGIN"
                   " SELECT COUNT(*) FROM nums; END")
        define(db, "CREATE PROCEDURE outer_p () LANGUAGE SQL BEGIN"
                   " CALL inner_p(); END")
        results = db.execute("CALL outer_p()")
        assert results[0].rows == [[5]]

    def test_call_function_raises(self, db):
        define(db, "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL RETURN 1")
        with pytest.raises(RoutineError):
            db.execute("CALL f()")

    def test_temp_table_in_procedure(self, db):
        define(db, """
        CREATE PROCEDURE via_temp () LANGUAGE SQL
        BEGIN
          CREATE TEMPORARY TABLE odds AS (SELECT n FROM nums WHERE MOD(n, 2) = 1);
          SELECT COUNT(*) FROM odds;
          DROP TABLE odds;
        END
        """)
        results = db.execute("CALL via_temp()")
        assert results[0].rows == [[3]]


class TestCursors:
    CURSOR_FN = """
    CREATE FUNCTION sum_via_cursor () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
    BEGIN
      DECLARE done INTEGER DEFAULT 0;
      DECLARE v INTEGER;
      DECLARE acc INTEGER DEFAULT 0;
      DECLARE c CURSOR FOR SELECT n FROM nums;
      DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
      OPEN c;
      w: WHILE done = 0 DO
        FETCH c INTO v;
        IF done = 0 THEN SET acc = acc + v; END IF;
      END WHILE w;
      CLOSE c;
      RETURN acc;
    END
    """

    def test_cursor_loop(self, db):
        define(db, self.CURSOR_FN)
        assert db.query("SELECT sum_via_cursor()").scalar() == 15

    def test_fetch_before_open_raises(self, db):
        define(db, """
        CREATE FUNCTION bad () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE v INTEGER;
          DECLARE c CURSOR FOR SELECT n FROM nums;
          FETCH c INTO v;
          RETURN v;
        END
        """)
        with pytest.raises(CursorError):
            db.query("SELECT bad()")

    def test_double_open_raises(self, db):
        define(db, """
        CREATE FUNCTION bad () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE v INTEGER;
          DECLARE c CURSOR FOR SELECT n FROM nums;
          OPEN c; OPEN c;
          RETURN 0;
        END
        """)
        with pytest.raises(CursorError):
            db.query("SELECT bad()")

    def test_close_unopened_raises(self, db):
        define(db, """
        CREATE FUNCTION bad () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE c CURSOR FOR SELECT n FROM nums;
          CLOSE c;
          RETURN 0;
        END
        """)
        with pytest.raises(CursorError):
            db.query("SELECT bad()")

    def test_cursor_sees_variables(self, db):
        define(db, """
        CREATE FUNCTION above (threshold INTEGER) RETURNS INTEGER
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE done INTEGER DEFAULT 0;
          DECLARE v INTEGER;
          DECLARE cnt INTEGER DEFAULT 0;
          DECLARE c CURSOR FOR SELECT n FROM nums WHERE n > threshold;
          DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
          OPEN c;
          w: WHILE done = 0 DO
            FETCH c INTO v;
            IF done = 0 THEN SET cnt = cnt + 1; END IF;
          END WHILE w;
          CLOSE c;
          RETURN cnt;
        END
        """)
        assert db.query("SELECT above(3)").scalar() == 2


class TestTableFunctions:
    TF = """
    CREATE FUNCTION evens () RETURNS ROW(n INTEGER) ARRAY
    READS SQL DATA LANGUAGE SQL
    BEGIN
      DECLARE result ROW(n INTEGER) ARRAY;
      INSERT INTO TABLE result (SELECT n FROM nums WHERE MOD(n, 2) = 0);
      RETURN result;
    END
    """

    def test_table_function_in_from(self, db):
        define(db, self.TF)
        result = db.query("SELECT f.n FROM TABLE(evens()) AS f ORDER BY f.n")
        assert [r[0] for r in result.rows] == [2, 4]

    def test_lateral_argument(self, db):
        define(db, """
        CREATE FUNCTION upto (k INTEGER) RETURNS ROW(n INTEGER) ARRAY
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE result ROW(n INTEGER) ARRAY;
          INSERT INTO TABLE result (SELECT n FROM nums WHERE n <= k);
          RETURN result;
        END
        """)
        result = db.query(
            "SELECT x.n, f.n FROM nums x, TABLE(upto(x.n)) AS f WHERE x.n = 2"
            " ORDER BY f.n"
        )
        assert [r[1] for r in result.rows] == [1, 2]

    def test_scalar_function_in_from_raises(self, db):
        define(db, "CREATE FUNCTION one () RETURNS INTEGER LANGUAGE SQL RETURN 1")
        with pytest.raises(Exception):
            db.query("SELECT f.x FROM TABLE(one()) AS f")

    def test_variable_table_dml(self, db):
        define(db, """
        CREATE FUNCTION juggle () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE buf ROW(n INTEGER) ARRAY;
          INSERT INTO TABLE buf (SELECT n FROM nums);
          DELETE FROM TABLE buf WHERE n > 3;
          RETURN (SELECT COUNT(*) FROM buf);
        END
        """)
        assert db.query("SELECT juggle()").scalar() == 3


class TestLabelsAreLexical:
    """LEAVE / ITERATE are resolved to their enclosing loop when the
    body is compiled: a label that is not there is a typed error of the
    routine that wrote it, raised at its first invocation — never a
    jump into the caller, never a Python exception out of ``execute``."""

    def test_leave_does_not_unwind_the_callers_loop(self, db):
        define(db, "CREATE FUNCTION inner1 () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN LEAVE w; RETURN 7; END")
        define(db, """
        CREATE FUNCTION h4 () RETURNS INTEGER LANGUAGE SQL
        BEGIN
          DECLARE x INTEGER DEFAULT 0;
          w: WHILE x < 3 DO
            SET x = x + 1;
            SET x = x + inner1();
          END WHILE w;
          RETURN x;
        END
        """)
        # the walker returned 1: inner1's LEAVE w left h4's loop
        with pytest.raises(RoutineError, match=r"'w'.* in inner1: LEAVE w"):
            db.query("SELECT h4()")

    @pytest.mark.parametrize("jump", ["LEAVE", "ITERATE"])
    def test_unknown_label_is_a_routine_error_and_rolls_back(self, db, jump):
        define(db, f"""
        CREATE PROCEDURE p () LANGUAGE SQL
        BEGIN
          DECLARE i INTEGER DEFAULT 0;
          INSERT INTO nums VALUES (99);
          lp: WHILE i < 2 DO
            SET i = i + 1;
            IF i = 5 THEN {jump} nosuch; END IF;
          END WHILE lp;
        END
        """)
        # rejected although the jump would never run, before the INSERT
        with pytest.raises(RoutineError, match=f"'nosuch'.* in p: {jump} nosuch"):
            db.execute("CALL p()")
        assert db.query("SELECT COUNT(*) FROM nums").scalar() == 5
        assert db.stats.call_depth == 0 and not db.txn.marks

    def test_a_handler_can_catch_the_callees_rejection(self, db):
        define(db, "CREATE FUNCTION bad () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN lp: LOOP ITERATE other; END LOOP lp; RETURN 1; END")
        define(db, """
        CREATE FUNCTION careful () RETURNS INTEGER LANGUAGE SQL
        BEGIN
          DECLARE x INTEGER DEFAULT 0;
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET x = -1;
          SET x = bad();
          RETURN x;
        END
        """)
        assert db.query("SELECT careful()").scalar() == -1

    def test_unknown_assignment_target_names_routine_and_statement(self, db):
        define(db, "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN DECLARE x INTEGER; SET y = 1; RETURN x; END")
        with pytest.raises(RoutineError, match=r"unknown variable 'y' in f: SET y = 1"):
            db.query("SELECT f()")
        define(db, "CREATE FUNCTION g () RETURNS INTEGER LANGUAGE SQL"
                   " BEGIN DECLARE c CURSOR FOR SELECT n FROM nums;"
                   " OPEN c; FETCH c INTO z; RETURN 1; END")
        with pytest.raises(RoutineError, match=r"unknown variable 'z' in g: FETCH c INTO z"):
            db.query("SELECT g()")


class TestCallDepth:
    """``MAX_DEPTH`` bounds nested routine *invocations*.  The walker
    counted nested statements instead, so ``fact`` gave out at 33 and
    ``fact2`` — the same recursion three blocks deep — at 15.

    One PSM call costs 8 Python frames where the call sits directly in
    the body (``fact``: call site, ``invoke_function``, ``_scalar_result``,
    ``_invoke``, the body's guard, the compound's guard, RETURN, ``*``)
    and 2 more per enclosing IF or loop, 1 per enclosing BEGIN: 13 for
    ``fact2``, 832 at depth 64 — under CPython's default limit of 1000
    with pytest's own frames on top, so the typed error comes first."""

    FACT = """
    CREATE FUNCTION fact (n INTEGER) RETURNS FLOAT LANGUAGE SQL
    BEGIN
      IF n <= 1 THEN RETURN 1; END IF;
      RETURN n * fact(n - 1);
    END
    """
    FACT2 = """
    CREATE FUNCTION fact2 (n INTEGER) RETURNS FLOAT LANGUAGE SQL
    BEGIN
      IF n > 1 THEN
        BEGIN
          IF n > 0 THEN
            RETURN n * fact2(n - 1);
          END IF;
        END;
      END IF;
      RETURN 1;
    END
    """

    @pytest.mark.parametrize("name", ["fact", "fact2"])
    def test_depth_64_runs_and_65_is_refused(self, db, name):
        import math
        import sys

        assert sys.getrecursionlimit() <= 1000  # the claim is about the default
        define(db, self.FACT)
        define(db, self.FACT2)
        assert RoutineInterpreter.MAX_DEPTH == 64
        assert db.query(f"SELECT {name}(64)").scalar() == float(math.factorial(64))
        with pytest.raises(RoutineError, match="call depth exceeded"):
            db.query(f"SELECT {name}(65)")
        assert db.stats.call_depth == 0
        assert len(db.txn.marks) == 0
        # and the engine is as usable as before
        assert db.query(f"SELECT {name}(5)").scalar() == 120.0

"""Condition handlers and routine atomicity (SQL/PSM ISO 9075-4).

The PSM interpreter wraps every routine statement in an undo-log mark:
a failed statement's partial effects are reverted before the handler
search begins, so a CONTINUE handler resumes with exactly the failing
statement undone, an EXIT handler additionally unwinds its compound,
and an unhandled exception leaves the whole routine without net effect.
"""

from __future__ import annotations

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import RoutineError, SignalError

from tests.faultinject import assert_snapshot_equal, snapshot_db


@pytest.fixture
def db_h(db: Database) -> Database:
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("CREATE TABLE log (msg CHAR(20))")
    # inserts two rows, then fails: the CALL statement is rolled back as
    # a unit wherever it appears
    db.execute(
        """
        CREATE PROCEDURE fail_mid ()
        LANGUAGE SQL
        BEGIN
          INSERT INTO t VALUES (101);
          INSERT INTO t VALUES (102);
          SIGNAL SQLSTATE '45000' SET MESSAGE_TEXT = 'boom';
        END
        """
    )
    return db


def values(db: Database, table: str = "t"):
    return sorted(row[0] for row in db.table(table).rows)


def test_unhandled_exception_reverts_whole_routine(db_h: Database):
    before = snapshot_db(db_h)
    with pytest.raises(SignalError) as excinfo:
        db_h.execute("CALL fail_mid()")
    assert excinfo.value.sqlstate == "45000"
    assert excinfo.value.message == "boom"
    assert_snapshot_equal(db_h, before)


def test_continue_handler_resumes_after_failed_statement(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION
            INSERT INTO log VALUES ('handled');
          INSERT INTO t VALUES (1);
          CALL fail_mid();
          INSERT INTO t VALUES (3);
        END
        """
    )
    db_h.execute("CALL p()")
    # the failed CALL's two inserts are gone; execution resumed
    assert values(db_h) == [1, 3]
    assert values(db_h, "log") == ["handled"]


def test_exit_handler_unwinds_one_compound_only(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          INSERT INTO t VALUES (1);
          BEGIN
            DECLARE EXIT HANDLER FOR SQLEXCEPTION
              INSERT INTO log VALUES ('handled');
            INSERT INTO t VALUES (2);
            CALL fail_mid();
            INSERT INTO t VALUES (3);
          END;
          INSERT INTO t VALUES (4);
        END
        """
    )
    db_h.execute("CALL p()")
    # 2 survives (its statement succeeded before the failure), 3 is
    # skipped (EXIT leaves the inner compound), 4 runs (outer continues)
    assert values(db_h) == [1, 2, 4]
    assert values(db_h, "log") == ["handled"]


def test_handler_in_caller_catches_callee_failure(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE outer_p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLSTATE '45000'
            INSERT INTO log VALUES ('caught');
          CALL fail_mid();
          INSERT INTO t VALUES (9);
        END
        """
    )
    db_h.execute("CALL outer_p()")
    assert values(db_h) == [9]
    assert values(db_h, "log") == ["caught"]


def test_sqlstate_handler_preferred_over_sqlexception(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION
            INSERT INTO log VALUES ('generic');
          DECLARE CONTINUE HANDLER FOR SQLSTATE '45001'
            INSERT INTO log VALUES ('specific');
          SIGNAL SQLSTATE '45001';
        END
        """
    )
    db_h.execute("CALL p()")
    assert values(db_h, "log") == ["specific"]


def test_signal_with_unmatched_sqlstate_falls_back_to_sqlexception(db_h):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION
            INSERT INTO log VALUES ('generic');
          SIGNAL SQLSTATE '45002';
        END
        """
    )
    db_h.execute("CALL p()")
    assert values(db_h, "log") == ["generic"]


def test_not_found_handler_untouched_by_statement_guards(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE n INTEGER;
          DECLARE done INTEGER DEFAULT 0;
          DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
          INSERT INTO t VALUES (1);
          SELECT a INTO n FROM t WHERE a = 999;
          INSERT INTO t VALUES (done);
        END
        """
    )
    db_h.execute("CALL p()")
    # NOT FOUND is a completion condition: nothing was rolled back and
    # the handler ran (done = 1)
    assert values(db_h) == [1, 1]


def test_failing_handler_action_does_not_recurse(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION
            SIGNAL SQLSTATE '45009' SET MESSAGE_TEXT = 'handler failed';
          CALL fail_mid();
        END
        """
    )
    before = snapshot_db(db_h)
    with pytest.raises(SignalError) as excinfo:
        db_h.execute("CALL p()")
    # the handler's own failure propagates instead of looping forever
    assert excinfo.value.sqlstate == "45009"
    assert_snapshot_equal(db_h, before)


def test_handler_goes_out_of_scope_with_its_compound(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          BEGIN
            DECLARE CONTINUE HANDLER FOR SQLEXCEPTION
              INSERT INTO log VALUES ('inner');
            INSERT INTO t VALUES (1);
          END;
          CALL fail_mid();
        END
        """
    )
    before = snapshot_db(db_h)
    with pytest.raises(SignalError):
        db_h.execute("CALL p()")
    assert_snapshot_equal(db_h, before)


def test_transaction_statements_rejected_inside_routines(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          ROLLBACK;
        END
        """
    )
    with pytest.raises(RoutineError, match="not allowed inside routines"):
        db_h.execute("CALL p()")


def test_signal_renders_back_to_sql():
    from repro.sqlengine.parser import parse_statement

    proc = parse_statement(
        "CREATE PROCEDURE p () LANGUAGE SQL BEGIN"
        " SIGNAL SQLSTATE '45000' SET MESSAGE_TEXT = 'it''s bad'; END"
    )
    rendered = proc.to_sql()
    assert "SIGNAL SQLSTATE '45000'" in rendered
    assert "MESSAGE_TEXT = 'it''s bad'" in rendered
    # and the rendering re-parses
    parse_statement(rendered)


# ---------------------------------------------------------------------------
# watchdog cancellations dispatch exactly like SIGNAL-raised states
# ---------------------------------------------------------------------------
#
# The watchdog check runs inside each routine statement's undo-log
# guard, so QueryCancelled (SQLSTATE 57014, a SignalError subclass)
# must hit CONTINUE/EXIT handlers exactly as a statement-raised SIGNAL
# would.  ``cancel_at_check`` indices below were chosen against the
# deterministic check schedule (one check at the top-level dispatch,
# one per PSM statement boundary, one per engine statement dispatch)
# to land the cancellation on a specific body statement.


def test_continue_handler_fires_for_watchdog_cancellation(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLSTATE '57014'
            INSERT INTO log VALUES ('cancelled');
          INSERT INTO t VALUES (1);
          INSERT INTO t VALUES (2);
          INSERT INTO t VALUES (3);
        END
        """
    )
    # check #6 is the second INSERT's statement boundary: it is undone
    # (never ran), the handler logs, execution resumes at the third
    db_h.resilience.cancel_at_check = 6
    db_h.execute("CALL p()")
    assert values(db_h) == [1, 3]
    assert values(db_h, "log") == ["cancelled"]


def test_exit_handler_fires_for_watchdog_cancellation(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          INSERT INTO t VALUES (1);
          BEGIN
            DECLARE EXIT HANDLER FOR SQLSTATE '57014'
              INSERT INTO log VALUES ('exit');
            INSERT INTO t VALUES (2);
            INSERT INTO t VALUES (3);
            INSERT INTO t VALUES (4);
          END;
          INSERT INTO t VALUES (5);
        END
        """
    )
    # check #9 cancels the third INSERT: the EXIT handler logs and
    # unwinds its compound only; the outer compound resumes
    db_h.resilience.cancel_at_check = 9
    db_h.execute("CALL p()")
    assert values(db_h) == [1, 2, 5]
    assert values(db_h, "log") == ["exit"]


def test_cancellation_outside_handler_scope_cascades(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          INSERT INTO t VALUES (1);
          BEGIN
            DECLARE EXIT HANDLER FOR SQLSTATE '57014'
              INSERT INTO log VALUES ('exit');
            INSERT INTO t VALUES (2);
          END;
          INSERT INTO t VALUES (5);
        END
        """
    )
    before = snapshot_db(db_h)
    # a cancellation after the inner compound closed finds no handler:
    # full routine atomicity, exactly like an unhandled SIGNAL
    db_h.resilience.cancel_at_check = 9
    from repro.sqlengine.errors import QueryCancelled

    with pytest.raises(QueryCancelled):
        db_h.execute("CALL p()")
    assert_snapshot_equal(db_h, before)


def test_deadline_cancellation_cascades_through_handlers(db_h: Database):
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLSTATE '57014'
            INSERT INTO log VALUES ('cancelled');
          INSERT INTO t VALUES (1);
        END
        """
    )
    from repro.sqlengine.errors import QueryCancelled

    before = snapshot_db(db_h)
    # an expired deadline re-fires at every check, so even a matching
    # CONTINUE handler cannot absorb it: its own action is cancelled
    # too and the routine unwinds without net effect
    db_h.resilience.statement_timeout = 0.0
    with pytest.raises(QueryCancelled):
        db_h.execute("CALL p()")
    db_h.resilience.statement_timeout = None
    assert_snapshot_equal(db_h, before)


def test_signalled_57014_hits_same_handler(db_h: Database):
    # parity check: an explicit SIGNAL of the cancellation state takes
    # the identical handler path the watchdog uses
    db_h.execute(
        """
        CREATE PROCEDURE p ()
        LANGUAGE SQL
        BEGIN
          DECLARE CONTINUE HANDLER FOR SQLSTATE '57014'
            INSERT INTO log VALUES ('cancelled');
          INSERT INTO t VALUES (1);
          SIGNAL SQLSTATE '57014' SET MESSAGE_TEXT = 'stop';
          INSERT INTO t VALUES (3);
        END
        """
    )
    db_h.execute("CALL p()")
    assert values(db_h) == [1, 3]
    assert values(db_h, "log") == ["cancelled"]


# -- handlers and lexical scopes -------------------------------------------
#
# Scopes are resolved when the body is compiled, so no way of leaving a
# block — an EXIT handler's unwinding included — can leave one of its
# declarations or handlers behind.


def _two_rows(db: Database) -> None:
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("INSERT INTO t VALUES (2)")


def test_exit_handler_out_of_a_for_loop_leaves_no_scope_behind(db_h: Database):
    """The walker popped a FOR record's scope on normal exit, LEAVE and
    ITERATE only; an EXIT handler's unwinding left it on the stack, the
    enclosing compound then popped the wrong one, and the inner block's
    ``x`` (and its handler) outlived the block: this returned 3."""
    _two_rows(db_h)
    db_h.execute(
        """
        CREATE FUNCTION f () RETURNS INTEGER
        LANGUAGE SQL
        BEGIN
          DECLARE x INTEGER DEFAULT 1;
          BEGIN
            DECLARE x INTEGER DEFAULT 2;
            DECLARE EXIT HANDLER FOR SQLEXCEPTION SET x = 3;
            FOR r AS SELECT a FROM t DO
              SIGNAL SQLSTATE '45000';
            END FOR;
          END;
          RETURN x;
        END
        """
    )
    assert db_h.query("SELECT f()").scalar() == 1


def test_continue_handler_outside_a_for_loop_resumes_each_iteration(db_h: Database):
    _two_rows(db_h)
    db_h.execute(
        """
        CREATE FUNCTION g () RETURNS INTEGER
        LANGUAGE SQL
        BEGIN
          DECLARE a INTEGER DEFAULT 10;
          DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET a = a + 100;
          FOR r AS SELECT a FROM t DO
            SIGNAL SQLSTATE '45000';
          END FOR;
          RETURN a;
        END
        """
    )
    # the variable, not the record's column of the same name, on both
    # sides of the handler's SET; one firing per row
    assert db_h.query("SELECT g()").scalar() == 210


def test_handler_of_an_ended_compound_does_not_fire(db_h: Database):
    _two_rows(db_h)
    db_h.execute(
        """
        CREATE FUNCTION h () RETURNS INTEGER
        LANGUAGE SQL
        BEGIN
          DECLARE x INTEGER DEFAULT 0;
          BEGIN
            DECLARE EXIT HANDLER FOR SQLEXCEPTION SET x = 99;
            FOR r AS SELECT a FROM t DO
              SIGNAL SQLSTATE '45000';
            END FOR;
          END;
          SIGNAL SQLSTATE '45001' SET MESSAGE_TEXT = 'after the block';
          RETURN x;
        END
        """
    )
    # the walker kept the inner handler registered (see above), ran its
    # action for the second SIGNAL too and returned 99
    with pytest.raises(SignalError) as excinfo:
        db_h.query("SELECT h()")
    assert excinfo.value.sqlstate == "45001"

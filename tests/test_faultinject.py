"""Crash every temporal strategy mid-flight and assert exact restoration.

Each test arms a single-shot :class:`~tests.faultinject.FaultPlan`,
runs a temporal statement that the fault aborts partway through, and
asserts the database is as if it had never run — row data, catalog
contents, temporal registries byte-identical, no version counter lower
than before, every derived structure current at its table's version
equal to a fresh build.  Because faults are single-shot, the
same statement then succeeds on re-run.
"""

from __future__ import annotations

import pytest

from repro.sqlengine.errors import FaultInjected
from repro.sqlengine.values import Date
from repro.temporal import TemporalStratum
from repro.temporal.stratum import SlicingStrategy

from tests.conftest import make_bookstore
from tests.faultinject import (
    assert_snapshot_equal,
    clear_fault,
    install_fault,
    snapshot_db,
    snapshot_registry,
)


def crash_and_check(stratum, sql, site, target=None, at=1,
                    strategy=SlicingStrategy.AUTO):
    """Arm a fault, run ``sql``, assert nothing changed, clear the fault."""
    db = stratum.db
    before = snapshot_db(db)
    before_vt = snapshot_registry(stratum.registry)
    before_tt = snapshot_registry(stratum.tt_registry)
    install_fault(db, site, target=target, at=at)
    with pytest.raises(FaultInjected):
        stratum.execute(sql, strategy)
    assert_snapshot_equal(db, before)
    assert snapshot_registry(stratum.registry) == before_vt
    assert snapshot_registry(stratum.tt_registry) == before_tt
    assert db.txn.log == [] and db.txn.marks == []
    clear_fault(db)


# ---------------------------------------------------------------------------
# sequenced modifications (one removal, then the pieces re-inserted)
# ---------------------------------------------------------------------------

SEQ_UPDATE = (
    "VALIDTIME [DATE '2010-02-01', DATE '2010-05-01']"
    " UPDATE author SET first_name = 'X' WHERE author_id = 'a1'"
)
SEQ_DELETE = (
    "VALIDTIME [DATE '2010-02-01', DATE '2010-05-01']"
    " DELETE FROM author WHERE author_id = 'a1'"
)


@pytest.mark.parametrize(
    "site,at",
    [
        ("table.delete", 1),        # before the old version is removed
        ("table.insert", 1),        # after the removal, before re-insert
        ("table.insert", 3),        # partway through the splits
    ],
)
def test_sequenced_update_crash(bookstore, site, at):
    crash_and_check(bookstore, SEQ_UPDATE, site, target="author", at=at)
    # faults cleared: the identical statement now applies cleanly
    bookstore.execute(SEQ_UPDATE)
    rows = bookstore.db.table("author").rows
    assert any(row[1] == "X" for row in rows)


@pytest.mark.parametrize(
    "site,at",
    [("table.delete", 1), ("table.insert", 1), ("table.insert", 2)],
)
def test_sequenced_delete_crash(bookstore, site, at):
    crash_and_check(bookstore, SEQ_DELETE, site, target="author", at=at)
    bookstore.execute(SEQ_DELETE)
    names = [(row[0], row[1]) for row in bookstore.db.table("author").rows]
    # the overlapping a1 row was split; the deleted span is gone
    assert ("a1", "Ben") in names


# ---------------------------------------------------------------------------
# current (TUC) modifications
# ---------------------------------------------------------------------------

CUR_UPDATE = "UPDATE author SET first_name = 'Rose' WHERE author_id = 'a2'"
CUR_DELETE = "DELETE FROM author WHERE author_id = 'a2'"


@pytest.mark.parametrize("site", ["table.update", "table.insert"])
def test_current_update_crash(bookstore, site):
    # the fault on table.insert fires after update_rows already closed
    # the old version — the canonical mid-flight state
    crash_and_check(bookstore, CUR_UPDATE, site, target="author")
    bookstore.execute(CUR_UPDATE)
    table = bookstore.db.table("author")
    now = bookstore.db.now
    new_versions = [row for row in table.rows if row[1] == "Rose"]
    assert len(new_versions) == 1
    assert new_versions[0][3] == now  # begins today


@pytest.mark.parametrize("site", ["table.update", "table.delete"])
def test_current_delete_crash(bookstore, site):
    # a second a2 version born today: the statement closes the old one
    # (update_rows) and then removes this one outright (delete) — the
    # fault on table.delete fires with the old version already closed
    bookstore.execute(
        "INSERT INTO author (author_id, first_name, last_name)"
        " VALUES ('a2', 'Rose', 'L')"
    )
    crash_and_check(bookstore, CUR_DELETE, site, target="author")
    bookstore.execute(CUR_DELETE)
    table = bookstore.db.table("author")
    now = bookstore.db.now
    a2 = [row for row in table.rows if row[0] == "a2"]
    assert len(a2) == 1 and a2[0][4] == now  # closed at today


# ---------------------------------------------------------------------------
# MAX slicing: the per-constant-period CALL loop
# ---------------------------------------------------------------------------

LOG_NAMES = """
CREATE PROCEDURE log_names ()
LANGUAGE SQL
BEGIN
  INSERT INTO audit SELECT first_name FROM author WHERE author_id = 'a1';
END
"""

MAX_CALL = "VALIDTIME [DATE '2010-01-01', DATE '2010-04-01'] CALL log_names()"


@pytest.fixture
def max_bookstore():
    stratum = make_bookstore()
    stratum.db.execute("CREATE TABLE audit (name CHAR(50))")
    stratum.register_routine(LOG_NAMES)
    return stratum


def test_max_call_crash_mid_loop(max_bookstore):
    """Crash in the second constant period: the first period's effects
    must be reverted too (the stratum's savepoint spans the loop)."""
    stratum = max_bookstore
    crash_and_check(
        stratum, MAX_CALL, "table.insert", target="audit", at=2,
        strategy=SlicingStrategy.MAX,
    )
    assert stratum.db.table("audit").rows == []
    # cp scratch table and routine clones from the aborted run are gone
    assert not stratum.db.catalog.has_table("taupsm_cp")
    stratum.execute(MAX_CALL, SlicingStrategy.MAX)
    # two constant periods in [2010-01-01, 2010-04-01): split at 02-01
    assert [row[0] for row in stratum.db.table("audit").rows] == ["Ben", "Ben"]


def test_max_call_crash_then_perst_unaffected(max_bookstore):
    """A crashed MAX run leaves no debris that perturbs later queries."""
    stratum = max_bookstore
    crash_and_check(
        stratum, MAX_CALL, "table.insert", target="audit", at=1,
        strategy=SlicingStrategy.MAX,
    )
    result = stratum.execute(
        "VALIDTIME SELECT first_name FROM author WHERE author_id = 'a1'",
        SlicingStrategy.PERST,
    )
    assert sorted(r[0] for r, _ in result.coalesced()) == ["Ben", "Benjamin"]


# ---------------------------------------------------------------------------
# transaction-time maintenance
# ---------------------------------------------------------------------------


@pytest.fixture
def tt_stratum():
    stratum = TemporalStratum()
    db = stratum.db
    db.execute("CREATE TABLE accounts (id CHAR(10), balance INTEGER)")
    db.execute("INSERT INTO accounts VALUES ('x', 100), ('y', 200)")
    stratum.execute("ALTER TABLE accounts ADD TRANSACTIONTIME")
    db.now = Date.from_ymd(2011, 6, 1)  # advance past the migration stamp
    return stratum


@pytest.mark.parametrize("site", ["table.update", "table.insert"])
def test_transactiontime_update_crash(tt_stratum, site):
    sql = "UPDATE accounts SET balance = 150 WHERE id = 'x'"
    crash_and_check(tt_stratum, sql, site, target="accounts")
    tt_stratum.execute(sql)
    table = tt_stratum.db.table("accounts")
    believed_now = [row for row in table.rows if row[0] == "x" and row[1] == 150]
    assert len(believed_now) == 1


@pytest.mark.parametrize("site", ["table.update", "table.delete"])
def test_transactiontime_delete_crash(tt_stratum, site):
    # a second y recorded at this clock: the statement closes the old
    # belief (update_rows), then removes the one inserted and deleted in
    # the same transaction time (delete)
    tt_stratum.execute("INSERT INTO accounts (id, balance) VALUES ('y', 250)")
    sql = "DELETE FROM accounts WHERE id = 'y'"
    crash_and_check(tt_stratum, sql, site, target="accounts")
    tt_stratum.execute(sql)
    table = tt_stratum.db.table("accounts")
    stop_index = table.column_index("tt_stop")
    closed = [row for row in table.rows if row[0] == "y"]
    assert len(closed) == 1
    assert closed[0][stop_index] == tt_stratum.db.now  # logically deleted


@pytest.mark.parametrize(
    "site,at",
    [("table.add_column", 1), ("table.add_column", 2), ("registry.add", 1)],
)
def test_add_transactiontime_crash(site, at):
    """ALTER ... ADD TRANSACTIONTIME is atomic: a crash between the two
    column additions (or before registration) leaves the plain table."""
    stratum = TemporalStratum()
    db = stratum.db
    db.execute("CREATE TABLE accounts (id CHAR(10), balance INTEGER)")
    db.execute("INSERT INTO accounts VALUES ('x', 100)")
    crash_and_check(
        stratum, "ALTER TABLE accounts ADD TRANSACTIONTIME", site,
        target="accounts", at=at,
    )
    assert db.table("accounts").column_names == ["id", "balance"]
    assert not stratum.tt_registry.is_temporal("accounts")
    stratum.execute("ALTER TABLE accounts ADD TRANSACTIONTIME")
    assert stratum.tt_registry.is_temporal("accounts")
    assert db.table("accounts").rows[0][2:] == [
        db.now, Date(Date.MAX_ORDINAL)
    ]


@pytest.mark.parametrize(
    "site,at",
    [("table.add_column", 2), ("registry.add", 1)],
)
def test_add_validtime_crash(site, at):
    stratum = TemporalStratum()
    db = stratum.db
    db.execute("CREATE TABLE t (v INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    crash_and_check(stratum, "ALTER TABLE t ADD VALIDTIME", site, target="t", at=at)
    assert db.table("t").column_names == ["v"]
    assert db.table("t").rows == [[1], [2]]
    stratum.execute("ALTER TABLE t ADD VALIDTIME")
    assert stratum.registry.is_temporal("t")

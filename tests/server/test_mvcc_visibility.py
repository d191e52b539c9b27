"""Snapshot-isolation visibility properties, via the direct session API.

Each test drives two (or more) sessions on one in-memory database with
``Database.create_session`` / ``activate_txn`` — the same machinery the
wire server uses, minus the sockets — and checks one MVCC guarantee:
own-writes visibility, no dirty reads, repeatable reads, first-writer-
and first-committer-wins 40001s, handler integration, and pin/chain
cleanup.
"""

import pytest

from repro.sqlengine.engine import Database
from repro.sqlengine.errors import ExecutionError, SerializationError
from repro.sqlengine.values import Date
from tests.conftest import DML_KINDS, make_dml_kinds
from tests.sqlengine.test_derived_structures import assert_from_scratch, image


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE t (id INT, v VARCHAR(10))")
    db.execute("INSERT INTO t VALUES (1, 'a')")
    db.execute("INSERT INTO t VALUES (2, 'b')")
    return db


def read_v(db, row_id):
    return db.execute(f"SELECT v FROM t WHERE id = {row_id}").scalar()


def test_session_reads_own_uncommitted_writes(db):
    session = db.create_session("s")
    db.activate_txn(session)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'mine' WHERE id = 1")
    assert read_v(db, 1) == "mine"
    db.execute("ROLLBACK")
    assert read_v(db, 1) == "a"
    db.close_session(session)


def test_no_dirty_reads(db):
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(session)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
    db.activate_txn(root)
    assert read_v(db, 1) == "a"
    db.activate_txn(session)
    db.execute("ROLLBACK")
    db.activate_txn(root)
    assert read_v(db, 1) == "a"
    db.close_session(session)


def test_repeatable_reads_across_foreign_commit(db):
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(session)
    db.execute("BEGIN")
    assert read_v(db, 1) == "a"
    db.activate_txn(root)
    db.execute("UPDATE t SET v = 'new' WHERE id = 1")
    assert read_v(db, 1) == "new"
    # the pinned session still sees its snapshot, repeatedly
    db.activate_txn(session)
    assert read_v(db, 1) == "a"
    assert read_v(db, 1) == "a"
    db.execute("COMMIT")
    # a fresh snapshot sees the commit
    assert read_v(db, 1) == "new"
    db.close_session(session)


def test_first_writer_wins_raises_40001_exactly_once(db):
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(root)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'root' WHERE id = 1")
    db.activate_txn(session)
    with pytest.raises(SerializationError) as excinfo:
        db.execute("UPDATE t SET v = 'session' WHERE id = 1")
    assert excinfo.value.sqlstate == "40001"
    # the failed statement rolled back cleanly: the session can go on
    # reading (the pre-image) and writing to an unclaimed table without
    # a second conflict appearing out of nowhere
    assert read_v(db, 1) == "a"
    db.execute("CREATE TABLE u (id INT)")
    db.execute("INSERT INTO u VALUES (7)")
    db.activate_txn(root)
    db.execute("COMMIT")
    db.close_session(session)
    assert read_v(db, 1) == "root"
    assert db.execute("SELECT id FROM u").scalar() == 7


def test_first_committer_wins_and_retry_succeeds(db):
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(session)
    db.execute("BEGIN")
    assert read_v(db, 1) == "a"  # snapshot pinned before root commits
    db.activate_txn(root)
    db.execute("UPDATE t SET v = 'first' WHERE id = 1")
    db.activate_txn(session)
    with pytest.raises(SerializationError):
        db.execute("UPDATE t SET v = 'second' WHERE id = 1")
    db.execute("ROLLBACK")
    # the classic retry loop: a fresh transaction sees the committed
    # state and the same update now succeeds
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'second' WHERE id = 1")
    db.execute("COMMIT")
    db.close_session(session)
    assert read_v(db, 1) == "second"


def test_insert_insert_on_same_table_conflicts(db):
    # claims are table-granularity: concurrent inserts into one table
    # are a write-write conflict by design
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(session)
    db.execute("BEGIN")
    db.execute("INSERT INTO t VALUES (10, 'x')")
    db.activate_txn(root)
    with pytest.raises(SerializationError):
        db.execute("INSERT INTO t VALUES (11, 'y')")
    db.activate_txn(session)
    db.execute("COMMIT")
    db.close_session(session)
    assert len(db.execute("SELECT id FROM t").rows) == 3


def test_continue_handler_catches_40001(db):
    db.execute("CREATE TABLE log (note VARCHAR(20))")
    db.execute(
        "CREATE PROCEDURE try_update () LANGUAGE SQL BEGIN"
        " DECLARE CONTINUE HANDLER FOR SQLSTATE '40001'"
        " INSERT INTO log VALUES ('handled');"
        " UPDATE t SET v = 'proc' WHERE id = 1;"
        " INSERT INTO log VALUES ('after');"
        " END"
    )
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(root)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'root' WHERE id = 1")
    db.activate_txn(session)
    db.execute("CALL try_update()")  # conflict handled inside, CONTINUEs
    notes = [r[0] for r in db.execute("SELECT note FROM log").rows]
    assert notes == ["handled", "after"]
    db.activate_txn(root)
    db.execute("COMMIT")
    db.close_session(session)
    assert read_v(db, 1) == "root"  # the handled UPDATE never applied


def test_exit_handler_catches_40001(db):
    db.execute("CREATE TABLE log (note VARCHAR(20))")
    db.execute(
        "CREATE PROCEDURE try_update () LANGUAGE SQL BEGIN"
        " DECLARE EXIT HANDLER FOR SQLSTATE '40001'"
        " INSERT INTO log VALUES ('handled');"
        " UPDATE t SET v = 'proc' WHERE id = 1;"
        " INSERT INTO log VALUES ('after');"
        " END"
    )
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(root)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'root' WHERE id = 1")
    db.activate_txn(session)
    db.execute("CALL try_update()")
    notes = [r[0] for r in db.execute("SELECT note FROM log").rows]
    assert notes == ["handled"]  # EXIT: the statement after is skipped
    db.activate_txn(root)
    db.execute("ROLLBACK")
    db.close_session(session)


def test_unhandled_40001_unwinds_like_signal(db):
    db.execute(
        "CREATE PROCEDURE blind_update () LANGUAGE SQL BEGIN"
        " UPDATE t SET v = 'proc' WHERE id = 1;"
        " END"
    )
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(root)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'root' WHERE id = 1")
    db.activate_txn(session)
    with pytest.raises(SerializationError) as excinfo:
        db.execute("CALL blind_update()")
    assert excinfo.value.sqlstate == "40001"
    db.activate_txn(root)
    db.execute("ROLLBACK")
    db.close_session(session)


def test_close_session_rolls_back_and_releases_pin(db):
    session = db.create_session("s")
    db.activate_txn(session)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'gone' WHERE id = 1")
    assert db.mvcc.pins and db.mvcc.state()["inflight_writers"]
    db.close_session(session)
    assert not db.mvcc.pins
    assert db.mvcc.quiescent()
    assert not db.mvcc.multi  # collapsed back to the dormant state
    assert read_v(db, 1) == "a"


def test_version_chains_collapse_when_last_session_leaves(db):
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(session)
    db.execute("BEGIN")
    assert read_v(db, 1) == "a"
    db.activate_txn(root)
    db.execute("UPDATE t SET v = 'new' WHERE id = 1")
    table = db.catalog.get_table("t")
    assert table.version_chain  # the session's snapshot needs it
    db.activate_txn(session)
    db.execute("COMMIT")
    db.close_session(session)
    assert not table.version_chain
    assert not table._snapshot_views
    assert not db.mvcc.multi


def test_registration_requires_quiescence_only_when_dormant(db):
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'open' WHERE id = 1")
    # dormant -> multi with the root's write claim pending: the
    # pre-image was never captured, so registration must refuse
    with pytest.raises(ExecutionError):
        db.create_session("s")
    db.execute("COMMIT")
    session = db.create_session("s")
    # already multi: a second session may join even mid-write
    db.activate_txn(session)
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'claimed' WHERE id = 1")
    other = db.create_session("s2")
    db.execute("COMMIT")
    db.close_session(other)
    db.close_session(session)


def test_reads_never_claim_or_conflict(db):
    # a read-only CALL in one session runs against the pre-image of a
    # table another session is mutating — no claim, no 40001, and the
    # reader leaves no write-set entry behind
    db.execute(
        "CREATE PROCEDURE count_rows () LANGUAGE SQL BEGIN"
        " SELECT COUNT(*) FROM t;"
        " END"
    )
    session = db.create_session("s")
    root = db.root_txn
    db.activate_txn(root)
    db.execute("BEGIN")
    db.execute("INSERT INTO t VALUES (3, 'c')")
    db.activate_txn(session)
    results = db.execute("CALL count_rows()")
    assert results[0].scalar() == 2  # pre-image: the insert is invisible
    assert not session.write_set
    db.activate_txn(root)
    db.execute("COMMIT")
    db.activate_txn(session)
    results = db.execute("CALL count_rows()")
    assert results[0].scalar() == 3
    db.close_session(session)


# UPDATE and DELETE find their rows before the first mutation, so the
# claim is taken before the match — on the conventional path exactly as
# on the stratum's three


@pytest.mark.parametrize("verb", ["UPDATE", "DELETE"])
@pytest.mark.parametrize("kind", list(DML_KINDS))
def test_dml_claims_before_it_matches(kind, verb):
    stratum = make_dml_kinds()
    db = stratum.db
    db.now = Date(db.now.ordinal + 1)  # the rows were not born today
    prefix, name = DML_KINDS[kind]
    head = f"UPDATE {name} SET price = 2.5" if verb == "UPDATE" else f"DELETE FROM {name}"
    sql = f"{prefix}{head} WHERE id = 'i2'"
    table = db.table(name)
    before = [list(row) for row in table.rows]
    root = db.root_txn
    reader, rival = db.create_session("reader"), db.create_session("rival")

    db.activate_txn(reader)
    db.execute("BEGIN")  # pins the snapshot
    db.activate_txn(root)
    db.execute("BEGIN")
    image(table)  # every structure current: the statement carries them
    assert stratum.execute(sql) == 1
    assert table.writer is root
    assert [list(row) for row in table.rows] != before
    # the statement matched the live table: its claim holder's read view
    assert db.read_table(name) is table

    db.activate_txn(reader)
    assert db.read_table(name) is not table
    assert db.read_table(name).rows == before

    db.activate_txn(rival)
    scanned = db.obs.value("engine.rows_scanned")
    with pytest.raises(SerializationError) as excinfo:
        stratum.execute(sql)
    assert excinfo.value.sqlstate == "40001"
    # refused at the claim, before any row was examined
    assert db.obs.value("engine.rows_scanned") == scanned

    db.activate_txn(root)
    db.execute("ROLLBACK")
    assert table.rows == before
    assert_from_scratch(table)
    db.activate_txn(reader)
    db.execute("COMMIT")
    db.activate_txn(root)
    db.close_session(reader)
    db.close_session(rival)


@pytest.mark.parametrize("kind", list(DML_KINDS))
def test_dml_after_a_foreign_commit_conflicts_before_matching(kind):
    """First committer wins at the claim: the statement never matches
    against the snapshot view it would otherwise have read."""
    stratum = make_dml_kinds()
    db = stratum.db
    prefix, name = DML_KINDS[kind]
    sql = f"{prefix}UPDATE {name} SET price = 2.5 WHERE id = 'i2'"
    session = db.create_session("late")
    db.activate_txn(session)
    db.execute("BEGIN")
    db.activate_txn(db.root_txn)
    assert stratum.execute(sql) == 1  # autocommit: a newer csn on the table
    db.activate_txn(session)
    scanned = db.obs.value("engine.rows_scanned")
    with pytest.raises(SerializationError):
        stratum.execute(sql)
    assert db.obs.value("engine.rows_scanned") == scanned
    db.execute("ROLLBACK")
    db.activate_txn(db.root_txn)
    db.close_session(session)

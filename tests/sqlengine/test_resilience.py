"""The resilience layer: watchdog, retry, context managers.

DESIGN.md §3.7.  The contract under test: a statement can always be
interrupted (typed ``QueryCancelled``, SQLSTATE 57014), unwinding
through the ordinary rollback machinery and leaving the engine usable;
transient durability faults are retried with backoff and surface as a
typed ``DurabilityError`` only after exhaustion.
"""

from __future__ import annotations

import errno

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import (
    DurabilityError,
    FaultInjected,
    QueryCancelled,
    SignalError,
)
from repro.sqlengine.resilience import retry_durable
from repro.taubench import get_query
from repro.temporal import SlicingStrategy, TemporalStratum

from tests.conftest import DML_KINDS, make_dml_kinds
from tests.faultinject import FaultPlan, assert_snapshot_equal, snapshot_db


@pytest.fixture
def stocked(db: Database) -> Database:
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(60))
    )
    return db


def _transient(site: str, target: str, hits: int) -> OSError:
    return OSError(errno.EINTR, f"transient at {site} #{hits}")


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------


def test_cancel_trigger_raises_typed_57014(stocked: Database):
    stocked.resilience.cancel_at_check = 1
    with pytest.raises(QueryCancelled) as excinfo:
        stocked.execute("SELECT a FROM t WHERE b = 3")
    assert excinfo.value.sqlstate == "57014"
    assert isinstance(excinfo.value, SignalError)


def test_cancellation_leaves_undo_log_clean_and_db_usable(stocked: Database):
    stocked.execute(
        """
        CREATE PROCEDURE churn ()
        LANGUAGE SQL
        BEGIN
          DECLARE i INTEGER;
          SET i = 0;
          WHILE i < 100 DO
            INSERT INTO t VALUES (1000 + i, 0);
            SET i = i + 1;
          END WHILE;
        END
        """
    )
    before = snapshot_db(stocked)
    # fire mid-loop, after real mutations have been applied and logged
    stocked.resilience.cancel_at_check = 40
    with pytest.raises(QueryCancelled):
        stocked.execute("CALL churn()")
    assert_snapshot_equal(stocked, before)
    assert stocked.txn.log == []
    assert stocked.txn.marks == []
    # the trigger is one-shot: the next statement runs normally
    stocked.execute("CALL churn()")
    assert len(stocked.table("t")) == 160


def test_async_cancel_fires_at_next_check(stocked: Database):
    stocked.resilience.cancel()
    with pytest.raises(QueryCancelled):
        stocked.execute("SELECT a FROM t")
    # the request was consumed
    assert len(stocked.execute("SELECT a FROM t").rows) == 60


def test_statement_timeout_cancels_and_clears(stocked: Database):
    stocked.resilience.statement_timeout = 0.0
    with pytest.raises(QueryCancelled) as excinfo:
        stocked.execute("SELECT a FROM t WHERE b = 1")
    assert "deadline" in str(excinfo.value)
    stocked.resilience.statement_timeout = None
    assert len(stocked.execute("SELECT a FROM t").rows) == 60


@pytest.mark.parametrize("verb", ["UPDATE", "DELETE"])
@pytest.mark.parametrize("kind", list(DML_KINDS))
def test_every_dml_match_is_a_cancellation_point(kind, verb):
    """All four kinds find their rows through the planner's level bind,
    so all inherit its watchdog checkpoint: a deadline that has already
    passed cancels the statement before it writes anything."""
    stratum = make_dml_kinds()
    db = stratum.db
    prefix, table = DML_KINDS[kind]
    head = f"UPDATE {table} SET price = 2.5" if verb == "UPDATE" else f"DELETE FROM {table}"
    sql = f"{prefix}{head} WHERE id = 'i2'"
    before = snapshot_db(db)
    db.resilience.statement_timeout = 0.0
    with pytest.raises(QueryCancelled) as excinfo:
        stratum.execute(sql)
    assert excinfo.value.sqlstate == "57014"
    assert_snapshot_equal(db, before)
    assert db.txn.log == [] and db.txn.marks == []
    db.resilience.statement_timeout = None
    assert stratum.execute(sql) == 1


def test_watchdog_counts_cancellations(stocked: Database):
    stocked.resilience.cancel_at_check = 1
    with pytest.raises(QueryCancelled):
        stocked.execute("SELECT a FROM t")
    assert stocked.obs.value("resilience.cancellations") == 1


# ---------------------------------------------------------------------------
# transient-fault retry and DurabilityError
# ---------------------------------------------------------------------------


def test_transient_wal_write_fault_is_retried(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.txn.fault_plan = FaultPlan("wal.write", exc_factory=_transient)
    db.execute("INSERT INTO t VALUES (1)")  # commit absorbs the blip
    assert db.obs.value("wal.retries") == 1
    db.txn.fault_plan = None
    db.close()
    reopened = Database.open(tmp_path / "db")
    assert len(reopened.table("t")) == 1
    reopened.close()


def test_transient_fsync_fault_is_retried(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.txn.fault_plan = FaultPlan("wal.fsync", exc_factory=_transient)
    db.execute("INSERT INTO t VALUES (1)")
    assert db.obs.value("wal.retries") >= 1
    db.txn.fault_plan = None
    db.close()


def test_persistent_transient_fault_exhausts_to_durability_error(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    # re-fires on every attempt: backoff cannot absorb it
    db.txn.fault_plan = FaultPlan(
        "wal.fsync", every=1, times=None, exc_factory=_transient
    )
    with pytest.raises(DurabilityError) as excinfo:
        db.execute("INSERT INTO t VALUES (1)")
    assert excinfo.value.operation == "wal.fsync"
    assert "wal.log" in excinfo.value.path
    assert excinfo.value.attempts > 1
    db.txn.fault_plan = None
    db.close(checkpoint=False)


def test_non_transient_oserror_wraps_without_retry(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.txn.fault_plan = FaultPlan(
        "wal.write",
        exc_factory=lambda site, target, hits: OSError(errno.EACCES, "denied"),
    )
    with pytest.raises(DurabilityError) as excinfo:
        db.execute("INSERT INTO t VALUES (1)")
    assert excinfo.value.attempts == 1
    assert db.obs.value("wal.retries") == 0
    db.txn.fault_plan = None
    db.close(checkpoint=False)


def test_checkpoint_rename_transient_fault_is_retried(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.txn.fault_plan = FaultPlan("checkpoint.rename", exc_factory=_transient)
    db.checkpoint()
    assert db.obs.value("wal.retries") == 1
    db.txn.fault_plan = None
    db.close()
    reopened = Database.open(tmp_path / "db")
    assert len(reopened.table("t")) == 1
    reopened.close()


def test_injected_crash_is_never_retried(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    plan = FaultPlan("wal.fsync")
    db.txn.fault_plan = plan
    with pytest.raises(FaultInjected):
        db.execute("INSERT INTO t VALUES (1)")
    assert plan.fires == 1  # one firing — retry did not re-drive it
    assert db.obs.value("wal.retries") == 0
    db.txn.fault_plan = None
    db.close(checkpoint=False)


def test_retry_durable_passes_result_through():
    assert retry_durable("op", "p", lambda: 41 + 1) == 42


# ---------------------------------------------------------------------------
# context managers and idempotent close
# ---------------------------------------------------------------------------


def test_database_context_manager_closes(tmp_path):
    with Database.open(tmp_path / "db") as db:
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
    assert db.durability is None
    with Database.open(tmp_path / "db") as db:
        assert [r[0] for r in db.table("t").rows] == [7]


def test_stratum_context_manager_closes(tmp_path):
    with TemporalStratum.open(tmp_path / "db") as stratum:
        stratum.execute("CREATE TABLE t (a INTEGER)")
    assert stratum.db.durability is None


def test_close_is_idempotent_and_flushes_once(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    manager = db.durability
    db.close()
    checkpoints = db.obs.value("checkpoint.writes")
    commits = db.obs.value("wal.commits")
    # second (and third) close: no second flush, no second checkpoint
    db.close()
    manager.close()
    assert db.obs.value("checkpoint.writes") == checkpoints
    assert db.obs.value("wal.commits") == commits


def test_context_manager_skips_checkpoint_on_error(tmp_path):
    with pytest.raises(RuntimeError):
        with Database.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (a INTEGER)")
            raise RuntimeError("boom")
    assert db.durability is None
    # no snapshot was written on the error path; the WAL alone recovers
    with Database.open(tmp_path / "db") as db:
        assert db.catalog.has_table("t")


# ---------------------------------------------------------------------------
# disarmed state
# ---------------------------------------------------------------------------


def test_disable_clears_timeout_to_free_state(stocked: Database):
    res = stocked.resilience
    res.statement_timeout = 5.0
    assert res.armed
    res.disable()
    assert not res.armed
    assert len(stocked.execute("SELECT a FROM t").rows) == 60


def test_armed_generous_timeout_does_the_same_work(small_dataset):
    """Armed with a deadline nothing reaches, every checkpoint is
    evaluated and nothing degrades: q2 under MAX returns the disarmed
    run's rows from the same slices and the same base-table rows
    scanned."""
    stratum = small_dataset.stratum
    db = stratum.db
    query = get_query("q2")
    query.install(small_dataset)
    sql = query.sequenced_sql(small_dataset, *small_dataset.context_bounds(365))

    def run():
        slices = db.obs.value("stratum.slices")
        scanned = db.obs.value("engine.rows_scanned")
        result = stratum.execute(sql, SlicingStrategy.MAX)
        return (
            sorted(map(repr, result.rows)),
            db.obs.value("stratum.slices") - slices,
            db.obs.value("engine.rows_scanned") - scanned,
        )

    run()  # warm: derived structures and the statement cache
    disarmed = run()
    db.resilience.statement_timeout = 3600.0
    try:
        armed = run()
        checks = db.resilience.checks
    finally:
        db.resilience.disable()
    assert armed == disarmed
    assert disarmed[1] > 1 and disarmed[2] > 0
    assert checks > 0


def test_explain_analyze_silent_when_disarmed(stocked: Database):
    text = stocked.execute("EXPLAIN ANALYZE SELECT a FROM t").text()
    assert "resilience" not in text


def test_explain_analyze_names_an_armed_timeout(stocked: Database):
    stocked.resilience.statement_timeout = 60.0
    text = stocked.execute("EXPLAIN ANALYZE SELECT a FROM t").text()
    line = next(row for row in text.splitlines() if "resilience" in row)
    assert line.startswith("  resilience: armed (timeout=60s), ")
    assert line.endswith(" watchdog checks")
    assert int(line.split(", ")[1].split()[0]) > 0

"""A temporal write costs what it touches, not the table.

Ending one row must log one cell update, and a sequenced UPDATE or DELETE of
one version one removal plus its pieces — in the WAL (bytes per
statement) and in the undo log (no entry holding the whole row list).
At the parent of this change each of these statements swapped in a
rebuilt row list: a ``setrows`` redo record of the table and an
O(table) undo entry per statement.
"""

import pytest

from repro.sqlengine.values import Date
from repro.temporal import TemporalStratum

ROWS = 400
# generous for a handful of row records, far below the ~20 KB a
# 400-row `setrows` record takes
SMALL = 1024


@pytest.fixture
def stratum(tmp_path):
    stratum = TemporalStratum.open(tmp_path / "store", sync=False)
    stratum.create_temporal_table(
        "CREATE TABLE item (id INTEGER, price FLOAT, begin_time DATE, end_time DATE)"
    )
    stratum.db.execute("CREATE TABLE acct (id INTEGER, balance INTEGER)")
    stratum.db.now = Date.from_ymd(2010, 1, 1)
    stratum.execute(
        "INSERT INTO item (id, price) VALUES "
        + ", ".join(f"({i}, {i}.0)" for i in range(ROWS))
    )
    stratum.db.execute(
        "INSERT INTO acct VALUES " + ", ".join(f"({i}, {i})" for i in range(ROWS))
    )
    stratum.execute("ALTER TABLE acct ADD TRANSACTIONTIME")
    stratum.db.now = Date.from_ymd(2010, 6, 1)
    yield stratum
    stratum.close(checkpoint=False)


def cost(stratum, sql):
    """(WAL bytes, undo entries) of one statement in its own transaction."""
    db = stratum.db
    before = db.obs.value("wal.bytes")
    stratum.execute("BEGIN")
    stratum.execute(sql)
    undo = list(db.txn.log)
    stratum.execute("COMMIT")
    return db.obs.value("wal.bytes") - before, undo


def whole_table_entries(undo):
    return [entry for entry in undo if entry[0] == "rows"]


@pytest.mark.parametrize("sql", [
    "DELETE FROM item WHERE id = 7",    # valid time: close at now
    "DELETE FROM acct WHERE id = 7",    # transaction time: close at the clock
])
def test_ending_one_row_logs_one_cell(stratum, sql):
    wal_bytes, undo = cost(stratum, sql)
    assert wal_bytes < SMALL
    assert [entry[0] for entry in undo] == ["upd"]


def test_deleting_a_row_born_today_removes_only_it(stratum):
    stratum.execute("INSERT INTO item (id, price) VALUES (7, 70.0)")
    table = stratum.db.table("item")
    before = list(table.rows)
    wal_bytes, undo = cost(stratum, "DELETE FROM item WHERE id = 7")
    assert wal_bytes < SMALL
    # the old version closed in place, today's version gone, the rest
    # the same row objects in the same order
    assert table.rows == before[:-1] and all(
        now is then for now, then in zip(table.rows, before)
    )
    assert [entry[0] for entry in undo] == ["upd", "rows"]


@pytest.mark.parametrize("verb,pieces", [
    ("UPDATE item SET price = 1.5", 3),  # the updated span and both remainders
    ("DELETE FROM item", 2),             # both remainders
])
def test_sequenced_write_logs_one_removal_and_its_pieces(stratum, verb, pieces):
    db = stratum.db
    written = db.obs.value("engine.rows_written.sequenced_rewrite")
    wal_bytes, undo = cost(
        stratum,
        f"VALIDTIME [DATE '2010-02-01', DATE '2010-03-01'] {verb} WHERE id = 7",
    )
    assert wal_bytes < SMALL
    assert [entry[0] for entry in undo] == ["rows"] + ["ins"] * pieces
    # one removal plus the insertions, counted alike for both verbs
    assert (
        db.obs.value("engine.rows_written.sequenced_rewrite") - written == 1 + pieces
    )
    table = db.table("item")
    assert len(table.rows) == ROWS - 1 + pieces
    assert [row[0] for row in table.rows[-pieces:]] == [7] * pieces

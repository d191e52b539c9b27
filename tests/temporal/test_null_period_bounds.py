"""A row whose period bound is NULL is invisible to every temporal write.

The engine lets ``INSERT INTO t VALUES (..., DATE '…', NULL)`` into a
VALIDTIME table; sequenced SELECT, the interval index and the
change-point sets all tolerate such a row under one rule — a comparison
with NULL is never true.  The four row passes of the temporal DML paths
follow the same rule: the row matches nothing, and nothing raises.
"""

import pytest

from repro.sqlengine.values import Date, Null
from repro.temporal import TemporalStratum


@pytest.fixture
def stratum():
    stratum = TemporalStratum()
    stratum.create_temporal_table(
        "CREATE TABLE t (id INTEGER, v INTEGER, begin_time DATE, end_time DATE)"
    )
    db = stratum.db
    db.execute("INSERT INTO t VALUES (1, 10, DATE '2010-01-01', DATE '9999-12-31')")
    db.execute("INSERT INTO t VALUES (2, 20, DATE '2010-01-01', NULL)")
    db.execute("INSERT INTO t VALUES (3, 30, NULL, DATE '9999-12-31')")
    db.now = Date.from_ymd(2010, 6, 1)
    return stratum


def rows(stratum):
    return [
        [None if v is Null else v.to_iso() if isinstance(v, Date) else v for v in row]
        for row in stratum.db.table("t").rows
    ]


UNBOUNDED = [
    [2, 20, "2010-01-01", None],
    [3, 30, None, "9999-12-31"],
]


def test_current_update_skips_null_bounded_rows(stratum):
    assert stratum.execute("UPDATE t SET v = v + 1") == 1
    assert rows(stratum) == [
        [1, 10, "2010-01-01", "2010-06-01"],
        *UNBOUNDED,
        [1, 11, "2010-06-01", "9999-12-31"],
    ]


def test_current_delete_skips_null_bounded_rows(stratum):
    assert stratum.execute("DELETE FROM t") == 1
    assert rows(stratum) == [[1, 10, "2010-01-01", "2010-06-01"], *UNBOUNDED]


def test_sequenced_update_skips_null_bounded_rows(stratum):
    count = stratum.execute(
        "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01'] UPDATE t SET v = 0"
    )
    assert count == 1
    assert rows(stratum) == [
        *UNBOUNDED,
        [1, 0, "2010-03-01", "2010-04-01"],
        [1, 10, "2010-01-01", "2010-03-01"],
        [1, 10, "2010-04-01", "9999-12-31"],
    ]


def test_sequenced_delete_skips_null_bounded_rows(stratum):
    count = stratum.execute(
        "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01'] DELETE FROM t"
    )
    assert count == 1
    assert rows(stratum) == [
        *UNBOUNDED,
        [1, 10, "2010-01-01", "2010-03-01"],
        [1, 10, "2010-04-01", "9999-12-31"],
    ]

"""A temporal modification reads what a query of its semantics reads.

Every INSERT / UPDATE / DELETE of a temporal table is one conventional
statement plus a period; what it reads — WHERE, SET, VALUES, the SELECT
of an INSERT, the routines they call — gets the same ``cur⟦·⟧`` a query
gets along every dimension its modifier does not name (paper §IV-C,
temporal upward compatibility).  So a current modification must leave
the timeslice exactly as the same statement leaves a conventional copy
of that timeslice, and a sequenced one that reads data temporal along
its own dimension is refused (SQLSTATE 0A000).

The fixture is the bookstore of ``make_dml_kinds``: author 'a1' is
'Ben' until 2010-06-01, then 'Benjamin'; ``account`` is a
transaction-time table recorded at 2010-04-01.
"""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.temporal.errors import FeatureNotSupportedError

from tests.conftest import GET_AUTHOR_NAME, make_dml_kinds
from tests.oracle import contents, timeslice
from tests.reference_executor import installed

FOREVER = Date(Date.MAX_ORDINAL)


@pytest.fixture
def stratum():
    stratum = make_dml_kinds()
    stratum.register_routine(GET_AUTHOR_NAME)
    return stratum


def check(stratum, sql, conventional_sql=None):
    """``sql`` through the stratum returns the count and leaves the
    timeslice at now (``tests/oracle``) as the conventional statement
    leaves the timeslice it ran on."""
    stmt = parse_statement(conventional_sql or sql)
    copy = timeslice(stratum, stratum.db.now.ordinal, stmt)
    with installed(copy):
        expected = copy.execute_ast(stmt)
    assert stratum.execute(sql) == expected
    assert contents(timeslice(stratum, stratum.db.now.ordinal)) == contents(copy)


def refused(stratum, sql):
    before = contents(stratum.db)
    with pytest.raises(FeatureNotSupportedError) as caught:
        stratum.execute(sql)
    assert caught.value.sqlstate == "0A000"
    assert contents(stratum.db) == before


def test_insert_select_into_a_transaction_time_table_reads_now(stratum):
    """Into a transaction-time table the SELECT reads the valid-time
    source at now (it used to read every version: a1 twice)."""
    stratum.db.execute("CREATE TABLE audit (author_id CHAR(10), first_name CHAR(50))")
    stratum.execute("ALTER TABLE audit ADD TRANSACTIONTIME")
    check(
        stratum,
        "INSERT INTO audit (author_id, first_name)"
        " SELECT author_id, first_name FROM author",
    )
    assert sorted(row[1] for row in stratum.db.table("audit").rows) == ["Ben", "Rosa"]


@pytest.mark.parametrize("sql", [
    # each inserted row would hold whichever version of a1 the select
    # read, over the whole context
    "INSERT INTO item (id, title, price) SELECT author_id, first_name, 1.0 FROM author",
    "UPDATE item SET title = (SELECT MAX(first_name) FROM author) WHERE id = 'i1'",
    "DELETE FROM item WHERE get_author_name('a1') = 'Ben'",
    "UPDATE item SET price = (SELECT MAX(price) FROM item)",
])
def test_a_sequenced_modification_reading_valid_time_is_refused(stratum, sql):
    refused(stratum, "VALIDTIME [DATE '2010-02-01', DATE '2010-08-01'] " + sql)


def test_update_subquery_reads_now(stratum):
    """The SET subquery reads a1 at now: reading every version wrote the
    greatest name, 'Benjamin', which is not valid until June."""
    check(
        stratum,
        "UPDATE item SET title = (SELECT MAX(first_name) FROM author"
        " WHERE author_id = 'a1') WHERE id = 'i1'",
    )
    assert stratum.execute("SELECT title FROM item WHERE id = 'i1'").scalar() == "Ben"


@pytest.mark.parametrize("sql", [
    "UPDATE item SET title = get_author_name('a1') WHERE id = 'i2'",
    "UPDATE item SET price = 1.0 WHERE id = 'i2' AND get_author_name('a1') = 'Benjamin'",
    "DELETE FROM item WHERE get_author_name('a1') = 'Benjamin'",
])
def test_a_routine_call_reads_now(stratum, sql):
    """The routine reads a1 at now, as in a current SELECT ('Benjamin');
    reading both versions raised a cardinality error."""
    stratum.db.now = Date.from_ymd(2010, 8, 1)
    check(stratum, sql)


@pytest.mark.parametrize("sql", [
    "DELETE FROM account WHERE id = 'i2'",
    "UPDATE account SET price = 5.0 WHERE id = 'i2'",
    "INSERT INTO account (id, price) VALUES ('i9', 9.0)",
])
def test_nonsequenced_validtime_on_a_transaction_time_table_is_current_at_the_clock(
    stratum, sql
):
    """With the clock ahead of now, ``NONSEQUENCED VALIDTIME`` leaves
    valid time alone and maintains transaction time at the clock, as the
    statement without the modifier does (not at CURRENT_DATE; an UPDATE
    is not refused)."""
    stratum.db.now = Date.from_ymd(2010, 6, 1)
    stratum.transaction_clock = Date.from_ymd(2010, 7, 1)
    check(stratum, "NONSEQUENCED VALIDTIME " + sql, sql)
    stamps = {
        stamp for row in stratum.db.table("account").rows for stamp in row[2:]
    }
    assert stamps <= {Date.from_ymd(2010, 4, 1), stratum.clock, FOREVER}
    assert stratum.clock in stamps


def test_insert_without_a_column_list_on_either_dimension(stratum):
    """A missing column list means every column but the period pair — on
    a valid-time table as on a transaction-time one."""
    check(stratum, "INSERT INTO item VALUES ('i9', 'Nine', 9.0)")
    check(stratum, "INSERT INTO account VALUES ('i9', 9.0)")
    assert [row[3:] for row in stratum.db.table("item").rows if row[0] == "i9"] == [
        [stratum.db.now, FOREVER]
    ]


def test_each_execution_reads_at_its_own_clock(stratum):
    """One current UPDATE text, run under two clocks, whose subquery
    reads a transaction-time table: each run reads at its own clock (the
    transaction-currency pass writes the clock in; a statement built
    under another clock must not be served)."""
    db = stratum.db
    db.now = Date.from_ymd(2010, 5, 1)
    stratum.execute("UPDATE account SET price = 50.0 WHERE id = 'i2'")
    sql = "UPDATE item SET price = (SELECT MAX(price) FROM account) WHERE id = 'i1'"
    stratum.transaction_clock = Date.from_ymd(2010, 4, 15)
    check(stratum, sql)
    assert stratum.execute("SELECT price FROM item WHERE id = 'i1'").scalar() == 2.0
    stratum.transaction_clock = None
    check(stratum, sql)
    assert stratum.execute("SELECT price FROM item WHERE id = 'i1'").scalar() == 50.0

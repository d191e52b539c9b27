"""Shared fixtures: a conventional engine and the paper's bookstore."""

from __future__ import annotations

import pytest

from repro.sqlengine import Database
from repro.sqlengine.values import Date
from repro.temporal import TemporalStratum


@pytest.fixture
def db() -> Database:
    return Database()


def make_bookstore() -> TemporalStratum:
    """The paper's running example: author/item/item_author with history.

    'Ben' is author a1's first name until 2010-06-01, then 'Benjamin'.
    """
    stratum = TemporalStratum()
    stratum.create_temporal_table(
        "CREATE TABLE author (author_id CHAR(10), first_name CHAR(50),"
        " last_name CHAR(50), begin_time DATE, end_time DATE)"
    )
    stratum.create_temporal_table(
        "CREATE TABLE item (id CHAR(10), title CHAR(100), price FLOAT,"
        " begin_time DATE, end_time DATE)"
    )
    stratum.create_temporal_table(
        "CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10),"
        " begin_time DATE, end_time DATE)"
    )
    db = stratum.db
    db.execute(
        "INSERT INTO author VALUES"
        " ('a1', 'Ben', 'Okri', DATE '2010-01-01', DATE '2010-06-01')"
    )
    db.execute(
        "INSERT INTO author VALUES"
        " ('a1', 'Benjamin', 'Okri', DATE '2010-06-01', DATE '9999-12-31')"
    )
    db.execute(
        "INSERT INTO author VALUES"
        " ('a2', 'Rosa', 'Luxemburg', DATE '2010-02-01', DATE '9999-12-31')"
    )
    db.execute(
        "INSERT INTO item VALUES"
        " ('i1', 'Book One', 25.0, DATE '2010-01-15', DATE '9999-12-31')"
    )
    db.execute(
        "INSERT INTO item VALUES"
        " ('i2', 'Book Two', 80.0, DATE '2010-03-01', DATE '2010-09-01')"
    )
    db.execute(
        "INSERT INTO item_author VALUES"
        " ('i1', 'a1', DATE '2010-01-15', DATE '9999-12-31')"
    )
    db.execute(
        "INSERT INTO item_author VALUES"
        " ('i2', 'a1', DATE '2010-03-01', DATE '2010-09-01')"
    )
    db.execute(
        "INSERT INTO item_author VALUES"
        " ('i1', 'a2', DATE '2010-02-01', DATE '2010-04-01')"
    )
    db.now = Date.from_ymd(2010, 4, 1)
    return stratum


# the four kinds of UPDATE/DELETE, each with a table holding an 'i2'
# row: kind -> (statement prefix, table)
DML_KINDS = {
    "conventional": ("", "plain"),
    "current": ("", "item"),
    "sequenced": ("VALIDTIME [DATE '2010-03-15', DATE '2010-05-01'] ", "item"),
    "transaction_time": ("", "account"),
}


def make_dml_kinds() -> TemporalStratum:
    """The bookstore plus a conventional ``plain`` and a transaction-time
    ``account`` table, both ``(id, price)`` with rows 'i1' and 'i2'."""
    stratum = make_bookstore()
    db = stratum.db
    db.execute("CREATE TABLE plain (id CHAR(10), price FLOAT)")
    db.execute("INSERT INTO plain VALUES ('i1', 1.0), ('i2', 2.0)")
    db.execute("CREATE TABLE account (id CHAR(10), price FLOAT)")
    stratum.execute("ALTER TABLE account ADD TRANSACTIONTIME")
    stratum.execute("INSERT INTO account (id, price) VALUES ('i1', 1.0), ('i2', 2.0)")
    return stratum


GET_AUTHOR_NAME = """
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END
"""


@pytest.fixture
def bookstore() -> TemporalStratum:
    return make_bookstore()


@pytest.fixture
def bookstore_with_fn() -> TemporalStratum:
    stratum = make_bookstore()
    stratum.register_routine(GET_AUTHOR_NAME)
    return stratum


@pytest.fixture(scope="session")
def small_dataset():
    """DS1-SMALL, shared across the session (tests must not mutate data)."""
    from repro.taubench import build_dataset

    return build_dataset("DS1", "SMALL")

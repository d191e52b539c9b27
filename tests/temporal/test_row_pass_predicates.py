"""The stratum's UPDATE/DELETE row passes evaluate WHERE and SET per row
through ``Executor.evaluate`` — the compiled-closure evaluator, the only
one there is.  Each predicate kind below selects exactly one row ('i2' /
'a2'), so the table a statement leaves depends only on its semantics and
verb; the expected tables were recorded with the tree-walking evaluator
the row passes used before it was removed.
"""

import pytest

from repro.sqlengine.values import Date
from repro.temporal import TemporalStratum

from tests.conftest import make_bookstore

FOREVER = "DATE '9999-12-31'"
ITEM_PREDICATES = [
    "title LIKE 'Book T%'",
    "CASE WHEN price > 50 THEN 1 ELSE 0 END = 1",
    "id IN ('i2', 'i9')",
    "price > (SELECT MAX(floor) FROM limits)",
]
ACCOUNT_PREDICATES = [
    "id LIKE '%2'",
    "CASE WHEN balance > 60 THEN 1 ELSE 0 END = 0",
    "id IN ('a2', 'a9')",
    "balance < (SELECT MAX(floor) FROM limits)",
]
SEQUENCED = "VALIDTIME [DATE '2010-04-01', DATE '2010-07-01'] "

I1 = ("i1", "Book One", "25.0", "DATE '2010-01-15'", FOREVER)
I2_BEFORE = ("i2", "Book Two", "80.0", "DATE '2010-03-01'", "DATE '2010-04-01'")
I2_AFTER = ("i2", "Book Two", "80.0", "DATE '2010-07-01'", "DATE '2010-09-01'")
ITEM_TABLES = {
    ("", "UPDATE"): [
        I1, I2_BEFORE, ("i2", "Book Two", "81.0", "DATE '2010-04-01'", FOREVER),
    ],
    ("", "DELETE"): [I1, I2_BEFORE],
    (SEQUENCED, "UPDATE"): [
        I1, ("i2", "Book Two", "81.0", "DATE '2010-04-01'", "DATE '2010-07-01'"),
        I2_BEFORE, I2_AFTER,
    ],
    (SEQUENCED, "DELETE"): [I1, I2_BEFORE, I2_AFTER],
}
A1 = ("a1", "100.0", "DATE '2010-01-01'", FOREVER)
A2_CLOSED = ("a2", "50.0", "DATE '2010-01-01'", "DATE '2010-02-01'")
ACCOUNT_TABLES = {
    "UPDATE": [A1, A2_CLOSED, ("a2", "100.0", "DATE '2010-02-01'", FOREVER)],
    "DELETE": [A1, A2_CLOSED],
}


def add_limits(stratum):
    stratum.db.execute("CREATE TABLE limits (floor FLOAT)")
    stratum.db.execute("INSERT INTO limits VALUES (30.0)")
    stratum.db.execute("INSERT INTO limits VALUES (60.0)")


def raw(stratum, name):
    return [tuple(str(v) for v in row) for row in stratum.db.table(name).rows]


@pytest.mark.parametrize("predicate", ITEM_PREDICATES)
@pytest.mark.parametrize("semantics, verb", list(ITEM_TABLES))
def test_valid_time_row_pass(semantics, verb, predicate):
    stratum = make_bookstore()
    add_limits(stratum)
    head = "UPDATE item SET price = price + 1" if verb == "UPDATE" else "DELETE FROM item"
    stratum.execute(f"{semantics}{head} WHERE {predicate}")
    assert raw(stratum, "item") == ITEM_TABLES[semantics, verb]


@pytest.mark.parametrize("predicate", ACCOUNT_PREDICATES)
@pytest.mark.parametrize("verb", list(ACCOUNT_TABLES))
def test_transaction_time_row_pass(verb, predicate):
    stratum = TemporalStratum()
    stratum.db.execute("CREATE TABLE account (id CHAR(8), balance FLOAT)")
    add_limits(stratum)
    stratum.db.now = Date.from_ymd(2010, 1, 1)
    stratum.execute("ALTER TABLE account ADD TRANSACTIONTIME")
    stratum.execute("INSERT INTO account (id, balance) VALUES ('a1', 100.0)")
    stratum.execute("INSERT INTO account (id, balance) VALUES ('a2', 50.0)")
    stratum.db.now = Date.from_ymd(2010, 2, 1)
    head = (
        "UPDATE account SET balance = balance * 2" if verb == "UPDATE"
        else "DELETE FROM account"
    )
    stratum.execute(f"{head} WHERE {predicate}")
    assert raw(stratum, "account") == ACCOUNT_TABLES[verb]

"""Grouped aggregation folds each row as the join emits it
(the generated plan function's fold, ``planner._consume``); what it returns and raises equals
the reference's grouping, which freezes every row and evaluates keys and
aggregates after the join (``tests/reference_executor.py``):

* an aggregate argument's error is held in its group and raised when
  that group's aggregate is folded: a group HAVING drops raises nothing,
  a kept one raises the same error (class, SQLSTATE, message);
* a GROUP BY key's error is held until the join is done, so a WHERE
  error from a later row wins;
* an empty ungrouped ``COUNT(*)`` / ``SUM`` is 0 / NULL;
* ``SUM`` / ``AVG`` fold the same float values in the same order, so
  their results are bit-identical;
* ``COUNT(DISTINCT)`` skips NULLs and counts blank-padded CHAR values
  once;
* a group's first row environment is frozen once per group, not once
  per row.

The one residual difference is pinned too: a routine inside an aggregate
argument runs for every input row, rows of groups HAVING drops included.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database, planner
from repro.sqlengine.errors import SqlError
from repro.sqlengine.values import Null
from tests.reference_executor import installed

SCHEMA = [
    "CREATE TABLE t (g INTEGER, x INTEGER, f FLOAT, s CHAR(4))",
    "CREATE TABLE log (v INTEGER)",
    # an argument error with its own SQLSTATE and message
    """CREATE FUNCTION inv (v INTEGER) RETURNS INTEGER LANGUAGE SQL
       BEGIN
         IF v = 0 THEN SIGNAL SQLSTATE '22012' SET MESSAGE_TEXT = 'inv of zero'; END IF;
         RETURN 10 / v;
       END""",
    """CREATE FUNCTION noted (v INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
       BEGIN INSERT INTO log VALUES (v); RETURN v; END""",
]


def fresh(rows=()) -> Database:
    db = Database()
    for sql in SCHEMA:
        db.execute(sql)
    if rows:
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows
        ))
    return db


def _literal(value) -> str:
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else repr(value)


def outcome(db: Database, sql: str):
    try:
        return ("rows", db.execute(sql).rows)
    except SqlError as exc:
        return ("error", type(exc).__name__, getattr(exc, "sqlstate", None), str(exc))


def both(db: Database, sql: str):
    """The engine's outcome, asserted equal to the reference's."""
    engine = outcome(db, sql)
    with installed(db):
        reference = outcome(db, sql)
    assert engine == reference, sql
    return engine


# ---------------------------------------------------------------------------
# random tables: every outcome equals the reference's
# ---------------------------------------------------------------------------

QUERIES = [
    "SELECT g, SUM(10 / x) FROM t GROUP BY g HAVING COUNT(*) > 1",
    "SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(10 / x) > 3",
    "SELECT g, MAX(x), AVG(f), COUNT(DISTINCT s) FROM t GROUP BY g ORDER BY SUM(10 / x)",
    "SELECT COUNT(*), SUM(10 / x), MIN(s) FROM t WHERE x > 1",
    "SELECT COUNT(*) FROM t HAVING SUM(10 / x) > 0",
    "SELECT COUNT(*), MAX(g) FROM t WHERE 10 / x > 1 GROUP BY 10 / (x - 1)",
    "SELECT s, COUNT(DISTINCT x), MIN(s), COUNT(s) FROM t GROUP BY s",
    "SELECT g + 1, SUM(x) * 2 FROM t GROUP BY g + 1"
    " HAVING MIN(10 / x) IS NOT NULL OR COUNT(*) > 2",
    "SELECT g, SUM(inv(x)), COUNT(x) FROM t GROUP BY g HAVING MAX(x) > 1",
    "SELECT a.g, COUNT(*), SUM(b.x), AVG(b.f) FROM t a, t b WHERE a.g = b.g"
    " GROUP BY a.g ORDER BY 2 DESC",
    "SELECT COUNT(*), COUNT(DISTINCT a.s) FROM t a, t b WHERE a.x = b.g",
]

ROWS = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([None, 0, 1, 2, 3, 5]),
        st.sampled_from([None, 0.1, -2.5, 1e16, 3.0]),
        st.sampled_from([None, "a", "a  ", "b"]),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS)
def test_random_tables_match_the_reference(rows):
    db = fresh(rows)
    for sql in QUERIES:
        both(db, sql)


# ---------------------------------------------------------------------------
# errors surface where evaluating after the join raised them
# ---------------------------------------------------------------------------


def test_a_group_having_drops_raises_nothing():
    db = fresh([(1, 0, None, None), (2, 5, None, None), (2, 2, None, None)])
    assert both(db, "SELECT g, SUM(10 / x) FROM t GROUP BY g HAVING COUNT(*) > 1") == (
        "rows", [[2, 7]]
    )
    assert both(db, "SELECT g, SUM(inv(x)) FROM t GROUP BY g HAVING COUNT(*) > 1") == (
        "rows", [[2, 7]]
    )


def test_a_kept_group_raises_the_same_error():
    db = fresh([(1, 0, None, None), (2, 5, None, None), (2, 2, None, None)])
    assert both(db, "SELECT g, SUM(10 / x) FROM t GROUP BY g") == (
        "error", "DivisionByZeroError", None, "division by zero"
    )
    assert both(db, "SELECT g, SUM(inv(x)) FROM t GROUP BY g HAVING MIN(x) < 1") == (
        "error", "SignalError", "22012", "inv of zero"
    )
    # ungrouped, and raised from HAVING before the select list folds
    assert both(db, "SELECT COUNT(*) FROM t HAVING MAX(inv(x)) > 0") == (
        "error", "SignalError", "22012", "inv of zero"
    )


def test_a_where_error_from_a_later_row_beats_a_group_key_error():
    db = Database()
    db.execute("CREATE TABLE u (x INTEGER, y VARCHAR(5))")
    db.execute("INSERT INTO u VALUES (0, '1'), (1, 'z')")
    # row 1 passes WHERE and its key raises; row 2's WHERE raises
    assert both(db, "SELECT COUNT(*) FROM u WHERE CAST(y AS INTEGER) > -1"
                    " GROUP BY 10 / x") == (
        "error", "TypeError_", None, "cannot coerce 'z' to INTEGER"
    )
    # without the WHERE error, the key's surfaces
    assert both(db, "SELECT COUNT(*) FROM u WHERE x < 5 GROUP BY 10 / x") == (
        "error", "DivisionByZeroError", None, "division by zero"
    )


@pytest.mark.parametrize("sql", [
    # the argument of a group HAVING drops: held, it would never be raised
    "SELECT g, SUM(inv(x)) FROM t GROUP BY g HAVING COUNT(*) > 100",
    # a group key: held, it would wait for the join and yield to WHERE
    "SELECT COUNT(*) FROM t WHERE 10 / (x - 5) > -100 GROUP BY inv(x)",
])
def test_a_cancellation_inside_the_fold_is_raised_at_once(sql):
    """A watchdog cancellation is not an expression's error: it is one-shot
    (the trigger clears as it fires), so a held one would be lost."""
    db = fresh([(1, 1, None, None), (2, 2, None, None), (2, 3, None, None),
                (3, 5, None, None)])
    resilience = db.resilience
    resilience.cancel_at_check = 10 ** 9  # count the statement's checks
    first = outcome(db, sql)
    last = resilience.checks
    resilience.cancel_at_check = last  # the last check: inside inv() on row 3
    assert outcome(db, sql) == (
        "error", "QueryCancelled", "57014",
        f"query cancelled by watchdog trigger (check #{last})",
    )
    resilience.disable()
    assert outcome(db, sql) == first


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def test_an_empty_ungrouped_aggregate_is_zero_or_null():
    db = fresh([(1, 2, 0.5, "a")])
    assert both(db, "SELECT COUNT(*), SUM(x), AVG(f), COUNT(x), MAX(s) FROM t"
                    " WHERE x > 100") == ("rows", [[0, Null, Null, 0, Null]])
    assert both(db, "SELECT g, COUNT(*) FROM t WHERE x > 100 GROUP BY g") == ("rows", [])


def test_float_sums_are_bit_identical():
    rng = random.Random(20120401)
    rows = [
        (rng.randrange(3), i, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20), None)
        for i in range(1200)
    ]
    db = fresh(rows)
    stored = db.execute("SELECT g, f FROM t").rows
    for sql, expected in (
        ("SELECT SUM(f), AVG(f) FROM t",
         [[sum(f for _, f in stored), sum(f for _, f in stored) / len(stored)]]),
        ("SELECT g, SUM(f), AVG(f) FROM t GROUP BY g", [
            [g, sum(fs), sum(fs) / len(fs)]
            for g in dict.fromkeys(g for g, _ in stored)
            for fs in [[f for k, f in stored if k == g]]
        ]),
    ):
        kind, found = both(db, sql)
        assert kind == "rows"
        assert [[v.hex() if isinstance(v, float) else v for v in row] for row in found] == [
            [v.hex() if isinstance(v, float) else v for v in row] for row in expected
        ]


def test_count_distinct_skips_nulls_and_blank_padding():
    db = fresh([
        (1, 1, None, "ab"), (1, 1, None, "ab  "), (1, None, None, None),
        (2, 2, None, "b"), (2, None, None, None), (2, 2, None, "ab "),
    ])
    assert both(db, "SELECT COUNT(DISTINCT s), COUNT(s), COUNT(DISTINCT x), COUNT(*)"
                    " FROM t") == ("rows", [[2, 4, 2, 6]])
    assert both(db, "SELECT g, COUNT(DISTINCT s), COUNT(DISTINCT x) FROM t GROUP BY g") == (
        "rows", [[1, 1, 1], [2, 2, 1]]
    )


# ---------------------------------------------------------------------------
# work
# ---------------------------------------------------------------------------


def test_one_frozen_environment_per_group(monkeypatch):
    """The shape of a sequenced GROUP BY under MAX: items × constant
    periods, grouped by subject and period."""
    db = Database()
    db.execute("CREATE TABLE cp (begin_time DATE, end_time DATE)")
    db.execute("CREATE TABLE item (id INTEGER, subject CHAR(8),"
               " begin_time DATE, end_time DATE)")
    days = [f"DATE '2010-01-{d:02d}'" for d in range(1, 11)]
    db.execute("INSERT INTO cp VALUES " + ", ".join(
        f"({a}, {b})" for a, b in zip(days, days[1:])
    ))
    rng = random.Random(7)
    db.execute("INSERT INTO item VALUES " + ", ".join(
        f"({i}, 's{i % 4}', {days[b]}, {days[rng.randrange(b + 1, 10)]})"
        for i in range(40) for b in [rng.randrange(9)]
    ))
    sql = (
        "SELECT i.subject, COUNT(*) AS n, cp.begin_time, cp.end_time"
        " FROM cp, item i WHERE i.begin_time <= cp.begin_time"
        " AND cp.begin_time < i.end_time"
        " GROUP BY i.subject, cp.begin_time, cp.end_time"
    )
    frozen = []
    freeze = planner._freeze_env
    # the generated fold reads it from the plan functions' namespace
    monkeypatch.setitem(
        planner._GENERATED, "_freeze_env", lambda env: frozen.append(1) or freeze(env)
    )
    groups = db.obs.value("engine.group.groups")
    kind, rows = both(db, sql)
    assert kind == "rows"
    assert len(frozen) == len(rows) == db.obs.value("engine.group.groups") - groups
    assert sum(row[1] for row in rows) > 2 * len(rows)  # rows were folded, not frozen


def test_a_routine_in_an_argument_runs_for_every_input_row():
    """The residual difference: the engine evaluates ``noted(x)`` as the
    join emits each row, so rows of the group HAVING drops are logged
    too; the reference folds only the groups HAVING keeps."""
    rows = [(1, 10, None, None), (2, 20, None, None), (2, 21, None, None)]
    sql = "SELECT g, SUM(noted(x)) FROM t GROUP BY g HAVING COUNT(*) > 1"
    db = fresh(rows)
    assert db.execute(sql).rows == [[2, 41]]
    assert sorted(r[0] for r in db.execute("SELECT v FROM log").rows) == [10, 20, 21]
    db = fresh(rows)
    with installed(db):
        assert db.execute(sql).rows == [[2, 41]]
    assert sorted(r[0] for r in db.execute("SELECT v FROM log").rows) == [20, 21]

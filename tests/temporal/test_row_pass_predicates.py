"""Every UPDATE/DELETE — conventional, current, sequenced, transaction
time — finds its rows through one engine match plan
(``planner.MatchPlan``: the statement's WHERE behind the stratum's
restriction to the period columns, as one single-table join pipeline)
and writes only after all of them are found.

* The recorded tables: each predicate kind below selects exactly one row
  ('i2' / 'a2'), so the table a statement leaves depends only on its
  semantics and verb; the expectations were recorded with the
  tree-walking evaluator the stratum's row passes used before PR 19.
* The differential: random histories (NULL / forever / adjacent /
  duplicate / empty periods) × the four kinds × UPDATE/DELETE × WHERE
  shapes × SET shapes (a value of another class, a NULL into a NOT NULL
  column) × alias or none, against a model that shares nothing with the
  planner — a list comprehension over the rows the restriction admits,
  the predicate and SET values evaluated by
  ``tests/reference_executor.py`` and coerced by ``types.coerce``, the
  close / split / re-insert steps written out on plain lists.  Raw rows
  in raw order, the affected count and the error class + SQLSTATE must
  agree.  A subquery over ``h`` reads what a query of the statement's
  semantics reads: the rows current at NOW (valid time) or at the clock
  (transaction time); a sequenced statement reading ``h`` is refused.
* SET values become cells in one place, the match plan: every kind
  coerces them and checks NOT NULL before anything is written.
* The floor: on DS1-SMALL a keyed UPDATE examines at most the versions
  of its key, whatever the kind.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine.errors import ExecutionError, SqlError, TypeError_
from repro.sqlengine.executor import Binding, Env
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.types import coerce
from repro.sqlengine.values import Date, Null, truth
from repro.taubench import build_dataset
from repro.temporal import TemporalStratum
from repro.temporal.errors import FeatureNotSupportedError

from tests.conftest import DML_KINDS, make_bookstore, make_dml_kinds
from tests.reference_executor import ReferenceExecutor

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


# -- the differential ---------------------------------------------------------

DAYS = [Date.from_ymd(2010, month, 1) for month in (1, 2, 3, 4, 5)]
END_OF_TIME = Date(Date.MAX_ORDINAL)
NOW = DAYS[2]
CONTEXT = (DAYS[1], DAYS[3])  # [2010-02-01, 2010-04-01)
BOUNDS = st.sampled_from([Null, *DAYS, END_OF_TIME, END_OF_TIME])
HISTORY = st.lists(
    st.tuples(
        st.sampled_from([Null, "a", "b", "b  ", "c"]),
        st.sampled_from([Null, 0, 1, 2]),
        st.sampled_from([Null, "x", "xy", "y  "]),
        st.sampled_from([Null, 0.5, 1.5, 2.5]),
        BOUNDS, BOUNDS,
    ),
    max_size=8,
)
KINDS = ("conventional", "current", "sequenced", "transaction_time")
# {q} is the target's qualifier: its alias, else its name
WHERE_SHAPES = [
    "",
    "WHERE {q}.id = 'b'",
    "WHERE {q}.k >= 1 AND {q}.v < 2.0",
    "WHERE {q}.s LIKE 'x%'",
    "WHERE {q}.k IN (0, 2)",
    "WHERE {q}.v > (SELECT MAX(l.floor) FROM lim l WHERE l.k = {q}.k)",
    "WHERE {q}.v = (SELECT MAX(v) FROM h)",
    "WHERE 10 / {q}.k > 0",  # raises on a k = 0 row the restriction admits
    "WHERE id = 'b' AND k + 0 = 1",  # unqualified; a partial conjunct behind the key
    "WHERE {q}.s = 1",  # cross-class: raises on any row the restriction admits
]
SETS = [
    "v = v + 1, s = 'new'",
    "v = (SELECT MAX(v) FROM h) + 1",
    # another class: coerced (an int into CHAR and FLOAT), or refused
    "s = k, v = CASE WHEN k = 1 THEN 'abc' ELSE k END",
    # a NULL into the NOT NULL column, on some rows only
    "n = CASE WHEN k = 2 THEN NULL ELSE n + 1 END",
]


def build_history(kind: str, rows) -> TemporalStratum:
    stratum = TemporalStratum()
    db = stratum.db
    db.now = NOW
    period = ("tt_start", "tt_stop") if kind == "transaction_time" else (
        "begin_time", "end_time"
    )
    db.execute(
        "CREATE TABLE h (id CHAR(4), k INTEGER, s CHAR(4), v FLOAT,"
        f" {period[0]} DATE, {period[1]} DATE, n INTEGER NOT NULL)"
    )
    if kind == "transaction_time":
        stratum.execute("ALTER TABLE h ADD TRANSACTIONTIME")
    elif kind != "conventional":
        stratum.execute("ALTER TABLE h ADD VALIDTIME")
    table = db.table("h")
    for row in rows:
        table.insert(list(row) + [1])
    db.execute("CREATE TABLE lim (k INTEGER, floor FLOAT)")
    db.execute("INSERT INTO lim VALUES (0, 1.0), (1, 0.0), (1, NULL), (2, 2.0)")
    return stratum


def admitted(kind: str, row) -> bool:
    """The stratum's restriction, on plain values."""
    begin, end = row[4], row[5]
    if kind == "conventional":
        return True
    if kind == "transaction_time":
        return end == END_OF_TIME
    if not (isinstance(begin, Date) and isinstance(end, Date)):
        return False
    if kind == "current":
        return begin.ordinal <= NOW.ordinal < end.ordinal
    lo, hi = CONTEXT
    return begin.ordinal < end.ordinal and (
        begin.ordinal < hi.ordinal and lo.ordinal < end.ordinal
    )


def visible(row) -> bool:
    """Current at NOW (= the clock), as a current query reads ``h``."""
    begin, end = row[4], row[5]
    return (
        isinstance(begin, Date) and isinstance(end, Date)
        and begin.ordinal <= NOW.ordinal < end.ordinal
    )


# the one subquery shape over the target itself
READS_H = "(SELECT MAX(v) FROM h)"


def stamped(row, begin, end):
    """``row`` over another period (the period columns are 4 and 5)."""
    return row[:4] + [begin, end] + row[6:]


def model(kind: str, stratum: TemporalStratum, sql: str):
    """``(affected, rows)`` the statement must leave, from plain lists."""
    db = stratum.db
    table = db.table("h")
    if READS_H in sql and kind == "sequenced":
        raise FeatureNotSupportedError("reads h along its own dimension")
    if READS_H in sql and kind != "conventional":
        values = [row[3] for row in table.rows if visible(row) and row[3] is not Null]
        sql = sql.replace(READS_H, repr(max(values)) if values else "NULL")
    stmt = parse_statement(sql)
    reference = ReferenceExecutor(db)
    colmap = {name.lower(): i for i, name in enumerate(table.column_names)}
    alias = (stmt.alias or stmt.table).lower()

    def env_of(row) -> Env:
        env = Env()
        env.bindings[alias] = Binding(colmap, row)
        return env

    rows = [list(row) for row in table.rows]
    matched = [
        n for n, row in enumerate(rows)
        if admitted(kind, row)
        and (stmt.where is None or truth(reference.evaluate(stmt.where, env_of(row))))
    ]
    update = hasattr(stmt, "assignments")
    changed = {}
    for n in matched:
        changed[n] = list(rows[n])
        assignments = stmt.assignments if update else ()
        values = [reference.evaluate(expr, env_of(rows[n])) for _, expr in assignments]
        for (column, _), value in zip(assignments, values):
            index = colmap[column.lower()]
            declared = table.columns[index]
            value = coerce(value, declared.type)
            if value is Null and declared.not_null:
                raise ExecutionError(f"NULL not allowed in h.{declared.name}")
            changed[n][index] = value
    if kind == "conventional":
        out = [changed.get(n, row) for n, row in enumerate(rows)]
        return len(matched), out if update else [
            row for n, row in enumerate(rows) if n not in changed
        ]
    tail = []
    if kind == "sequenced":
        lo, hi = (bound.ordinal for bound in CONTEXT)
        for n in matched:
            begin, end = rows[n][4].ordinal, rows[n][5].ordinal
            if update:
                tail.append(stamped(changed[n], Date(max(begin, lo)), Date(min(end, hi))))
            if begin < lo:
                tail.append(stamped(rows[n], Date(begin), Date(min(end, lo))))
            if end > hi:
                tail.append(stamped(rows[n], Date(max(begin, hi)), Date(end)))
        return len(matched), [
            row for n, row in enumerate(rows) if n not in changed
        ] + tail
    # current semantics at NOW (valid time) / at the clock (= NOW)
    out = []
    for n, row in enumerate(rows):
        if n not in changed:
            out.append(row)
        elif row[4] == NOW:  # born now: overwritten in place / removed
            if update:
                out.append(stamped(changed[n], NOW, END_OF_TIME))
        else:
            out.append(stamped(row, row[4], NOW))
            if update:
                tail.append(stamped(changed[n], NOW, END_OF_TIME))
    return len(matched), out + tail


def outcome(thunk):
    try:
        return ("ok", thunk())
    except SqlError as exc:
        return ("error", type(exc), getattr(exc, "sqlstate", None))


def check(kind: str, rows, verb: str, shape: str, alias: str):
    stratum = build_history(kind, rows)
    table = stratum.db.table("h")
    before = [list(row) for row in table.rows]
    target = f"h {alias}".strip()
    head = f"UPDATE {target} SET {verb}" if verb else f"DELETE FROM {target}"
    sql = f"{head} {shape.format(q=alias or 'h')}".strip()
    expected = outcome(lambda: model(kind, stratum, sql))
    prefix = (
        f"VALIDTIME [DATE '{CONTEXT[0].to_iso()}', DATE '{CONTEXT[1].to_iso()}'] "
        if kind == "sequenced" else ""
    )
    got = outcome(lambda: stratum.execute(prefix + sql))
    after = [list(row) for row in table.rows]
    if got[0] == "ok":
        got = ("ok", (got[1], after))
    else:
        assert after == before, (sql, "a failed statement left rows behind")
    assert got == expected, (kind, sql, before)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=HISTORY, data=st.data())
def test_every_kind_equals_the_list_model(rows, data):
    for kind in KINDS:
        history = rows
        if kind == "transaction_time":
            # most versions still believed: tt_stop = forever
            history = [
                row[:5] + (END_OF_TIME,) if n % 3 else row for n, row in enumerate(rows)
            ]
        alias = data.draw(st.sampled_from(["", "x"]))
        verb = data.draw(st.sampled_from(["", *SETS]))
        shape = data.draw(st.sampled_from(WHERE_SHAPES))
        check(kind, history, verb, shape, alias)


@pytest.mark.parametrize("kind", KINDS)
def test_the_written_out_history(kind):
    """One fixed history through every shape and both verbs (a readable
    failure): NULL, forever, adjacent, duplicate and empty periods, a
    version born at NOW, a k = 0 row outside every restriction."""
    d = DAYS
    rows = [
        ("b", 1, "x", 1.5, d[0], d[2]), ("b", 1, "x", 1.5, d[2], END_OF_TIME),
        ("b", 1, "x", 1.5, d[2], END_OF_TIME), ("a", 2, "xy", 2.5, d[1], d[4]),
        ("c", 0, "y", 0.5, d[3], d[3]), ("c", 0, "y", 0.5, Null, END_OF_TIME),
        ("b  ", 2, Null, Null, d[0], END_OF_TIME), (Null, Null, "x", 0.5, d[1], d[2]),
    ]
    for verb in ["", *SETS]:
        for alias in ("", "x"):
            for shape in WHERE_SHAPES:
                check(kind, rows, verb, shape, alias)


@pytest.mark.parametrize("verb", ["UPDATE h SET v = v + 1", "DELETE FROM h"])
@given(rows=HISTORY)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_inside_a_routine_with_the_key_in_a_variable(verb, rows):
    """The conventional kind from a PSM body: the key is a routine
    variable, an outer operand of the match plan (the stratum refuses
    routine DML on temporal tables, so the other kinds cannot occur)."""
    stratum = build_history("conventional", rows)
    stratum.db.execute(
        "CREATE PROCEDURE touch (kk CHAR(4)) LANGUAGE SQL"
        f" BEGIN {verb} WHERE id = kk AND k + 0 >= 1; END"
    )
    for key in ("b", "a"):  # the second call runs the cached plan
        sql = f"{verb} WHERE id = '{key}' AND k + 0 >= 1"
        expected = model("conventional", stratum, sql)
        stratum.execute(f"CALL touch('{key}')")
        assert [list(row) for row in stratum.db.table("h").rows] == expected[1]


# -- SET values become cells in one place -------------------------------------


@pytest.mark.parametrize("kind", list(DML_KINDS))
def test_set_values_are_coerced_in_every_kind(kind):
    """A conventional UPDATE, a current one of a version born at its
    point, a sequenced one's updated piece and a transaction-time one of
    a row recorded at the clock store what the column holds: at the
    parent of this change the last three stored 'abc' and an int in the
    FLOAT column, and 150 characters in CHAR(100)."""
    stratum = make_dml_kinds()
    prefix, name = DML_KINDS[kind]
    key = "i1" if kind == "sequenced" else "i9"
    if kind != "sequenced":
        columns = "(id, title, price)" if name == "item" else "(id, price)"
        title = "'X', " if name == "item" else ""
        stratum.execute(f"INSERT INTO {name} {columns} VALUES ('i9', {title}1.0)")
    table = stratum.db.table(name)
    refused = ["price = 'abc'"]
    if name == "item":
        refused.append(f"title = '{'x' * 150}'")
    for assignment in refused:
        before = raw(stratum, name)
        with pytest.raises(TypeError_):
            stratum.execute(f"{prefix}UPDATE {name} SET {assignment} WHERE id = '{key}'")
        assert raw(stratum, name) == before
    assert stratum.execute(f"{prefix}UPDATE {name} SET price = 2 WHERE id = '{key}'") == 1
    price = table.column_index("price")
    assert all(type(row[price]) is float for row in table.rows)


@pytest.mark.parametrize("kind", list(DML_KINDS))
def test_a_coercion_failure_on_the_last_matched_row_writes_nothing(kind):
    """Both rows match; only the last one's value cannot be coerced.
    Every row's cells are prepared before the first write, so there is
    nothing to undo."""
    stratum = make_dml_kinds()
    prefix, name = DML_KINDS[kind]
    before = raw(stratum, name)
    rollbacks = stratum.db.stats.rollbacks
    with pytest.raises(TypeError_):
        stratum.execute(
            f"{prefix}UPDATE {name} SET price = CASE WHEN id = 'i2' THEN 'abc'"
            " ELSE 1.0 END WHERE id IN ('i1', 'i2')"
        )
    assert raw(stratum, name) == before
    assert stratum.db.stats.rollbacks == rollbacks


# -- the floor ----------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_keyed_update_examines_only_the_versions_of_its_key(kind):
    """DS1-SMALL ``item``: the match is a hash probe on ``id``, so
    ``engine.rows_scanned`` moves by at most the key's version count (at
    the parent of this change the row passes walked every row and
    counted nothing)."""
    stratum = build_dataset("DS1", "SMALL").stratum
    db = stratum.db
    if kind == "conventional":
        db.execute("CREATE TABLE item_copy AS SELECT * FROM item")
        name = "item_copy"
    elif kind == "transaction_time":
        db.execute("CREATE TABLE item_tt AS SELECT id, title, price FROM item")
        stratum.execute("ALTER TABLE item_tt ADD TRANSACTIONTIME")
        name = "item_tt"
    else:
        name = "item"
    table = db.table(name)
    key = table.rows[len(table.rows) // 2][0]
    now = db.now.ordinal
    prefix = (
        f"VALIDTIME [DATE '{Date(now - 30).to_iso()}', DATE '{Date(now + 30).to_iso()}'] "
        if kind == "sequenced" else ""
    )
    sql = f"{prefix}UPDATE {name} SET price = 2.5 WHERE id = '{key}'"
    stratum.execute(f"{prefix}UPDATE {name} SET price = 1.5 WHERE id = '{key}'")  # warm
    versions = sum(1 for row in table.rows if row[0] == key)
    scanned = db.obs.value("engine.rows_scanned")
    assert stratum.execute(sql) >= 1
    moved = db.obs.value("engine.rows_scanned") - scanned
    assert 1 <= moved <= versions < len(table.rows)

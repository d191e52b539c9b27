"""Differential: the planner's join pipeline ≡ the FROM-order nested loop.

``tests/reference_executor.py`` is the reference: a FROM-order nested
loop that walks the AST and evaluates the whole WHERE at the leaf,
without hash or interval probes.  This test installs it on the database
for the reference run, so the routine bodies and subqueries a statement
reaches run through it too.  On random small tables the planned result
must match it in rows *and* order, and in errors under the pipeline's
stated rule: it raises iff a partial conjunct raises on a combination
that satisfies every total conjunct.  So

* whenever both paths return, rows and order are identical;
* the pipeline never raises where the reference returns;
* it may return where the reference raises — only because the raising
  combination fails a total conjunct: with the total conjuncts taken out
  of the WHERE it raises the same error class.

The shapes are the ones a reordered or early-filtering join gets wrong:
duplicate value-identical rows, NULL keys, CHAR padding, INTEGER = FLOAT
keys, composite/flipped equalities, chains that reorder, self-joins, a
keyless inner level bounded only by a stab on the outer row, ORDER BY
ties, DISTINCT, GROUP BY, correlated subqueries, routine variables and
table variables, raising conjuncts before and after total ones — plus a
rolled-back insert (row-position map evicted with the version) and a
second MVCC session (read views).

``SUFFIX`` holds opaque levels after a reordered scan pair: table
functions (one lateral to the other), a derived table, a scan after a
table function, a raising conjunct on a function's column, an explicit
JOIN, and an opaque first level.  The pipeline orders only the leading scans and
joins the rest under each of their combinations in FROM order; a
``MODIFIES SQL DATA`` table function's log shows it is called exactly
as the FROM-order loop calls it.

``PERIOD`` holds the shapes whose period conjuncts the access path
decides instead of a level filter: a hash key plus a stab, an overlap or
a one-sided bound (the probe keeps only the bucket's versions inside
them), a begin range over a constant-period table and a stab or overlap
without a key (interval probes), bounds inclusive and exclusive on both
sides — over histories with NULL and forever bounds, zero-length,
duplicate and equal-begin versions.  Whether a keyless level runs the
batch kernels or the row-at-a-time filters follows from the statement:
the shapes with a partial conjunct beside the bounds take the row path.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.errors import SqlError
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.planner import _BEGIN_FROM, build_select_plan
from repro.sqlengine.values import Null
from tests.reference_executor import installed

INTS = st.sampled_from([Null, 0, 1, 1, 2])
CHARS = st.sampled_from([Null, "x", "x  ", "y"])
FLOATS = st.sampled_from([Null, 0.0, 1.0, 1.5, 2.0])
DAYS = st.sampled_from(
    [Null, "2010-01-01", "2010-01-05", "2010-01-09", "2010-02-01", "9999-12-31"]
)

rows_a = st.lists(st.tuples(INTS, CHARS, FLOATS, INTS), max_size=6)
rows_b = st.lists(st.tuples(INTS, CHARS, FLOATS, INTS), max_size=6)
rows_c = st.lists(st.tuples(INTS, INTS), max_size=5)
rows_fact = st.lists(st.tuples(INTS, DAYS, DAYS), max_size=6)
rows_cp = st.lists(st.tuples(DAYS, DAYS), max_size=4)

SCHEMA = [
    "CREATE TABLE a (k INTEGER, s CHAR(4), f FLOAT, v INTEGER)",
    "CREATE TABLE b (k INTEGER, s CHAR(4), f FLOAT, w INTEGER)",
    "CREATE TABLE c (k INTEGER, x INTEGER)",
    "CREATE TABLE fact (k INTEGER, begin_time DATE, end_time DATE)",
    "CREATE TABLE cp (begin_time DATE, end_time DATE)",
    # a routine-frame variable as probe value and filter operand
    """CREATE FUNCTION probe (kk INTEGER, ss CHAR(4)) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT COUNT(*) FROM a, b
                 WHERE a.k = b.k AND b.w = kk AND a.s = ss AND a.v <= kk);
       END""",
    # the same variable compared across classes: partial for that
    # execution — it keys no probe and must wait for the total conjuncts
    # (in filter_cross one that nothing passes)
    """CREATE FUNCTION probe_cross (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND b.s = kk);
       END""",
    """CREATE FUNCTION filter_cross (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT COUNT(*) FROM a, b
                 WHERE a.k = b.k AND b.w > 5 AND a.s < kk);
       END""",
    # a table variable as a join source
    """CREATE FUNCTION via_table_var (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE buf ROW(k INTEGER, w INTEGER) ARRAY;
         INSERT INTO TABLE buf (SELECT k, w FROM b);
         RETURN (SELECT COUNT(*) FROM a, buf WHERE a.k = buf.k AND buf.w = kk);
       END""",
    # table functions after the scan prefix: one that reads, one that
    # logs each argument it is called with
    """CREATE FUNCTION from_c (kk INTEGER) RETURNS ROW(k INTEGER, x INTEGER) ARRAY
       READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE buf ROW(k INTEGER, x INTEGER) ARRAY;
         INSERT INTO TABLE buf (SELECT k, x FROM c WHERE k >= kk);
         RETURN buf;
       END""",
    "CREATE TABLE log (n INTEGER)",
    """CREATE FUNCTION logged (kk INTEGER) RETURNS ROW(x INTEGER) ARRAY
       MODIFIES SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE buf ROW(x INTEGER) ARRAY;
         INSERT INTO log VALUES (kk);
         INSERT INTO TABLE buf (SELECT x FROM c WHERE k = kk);
         RETURN buf;
       END""",
]

# (FROM + select list, total conjuncts, partial conjuncts in WHERE order
# relative to the totals: "before" / "after"), tail
QUERIES = [
    # duplicates, NULL keys; no key bound from outside: FROM order
    ("SELECT a.k, a.v, b.w FROM a, b", ["a.k = b.k"], [], ""),
    # CHAR padding
    ("SELECT a.s, b.s, b.w FROM a, b", ["a.s = b.s"], [], ""),
    # INTEGER = FLOAT
    ("SELECT a.k, b.f FROM a, b", ["a.k = b.f"], [], ""),
    # composite and flipped
    ("SELECT a.v, b.w FROM a, b", ["b.k = a.k", "a.s = b.s"], [], ""),
    # literal key on the second source: reorders
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "b.w = 1"], [], ""),
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "1 = b.w", "a.v < 2"], [], ""),
    # 3-way chain that runs c, b, a
    ("SELECT a.v, b.w, c.x FROM a, b, c",
     ["a.k = b.k", "b.w = c.k", "c.x = 1"], [], ""),
    ("SELECT * FROM a, b, c", ["a.k = b.k", "b.w = c.k", "c.x = 1"], [], ""),
    # self-join under two aliases
    ("SELECT a1.v, a2.v FROM a a1, a a2", ["a1.k = a2.v", "a2.k = 1"], [], ""),
    # keyless inner level bounded only by a stab on the outer row
    ("SELECT cp.begin_time, fact.k FROM cp, fact",
     ["fact.begin_time <= cp.begin_time", "cp.begin_time < fact.end_time"], [], ""),
    ("SELECT cp.begin_time, cp.end_time, fact.k FROM cp, fact",
     ["fact.begin_time <= cp.begin_time", "cp.begin_time < fact.end_time",
      "fact.k = 1"], [], ""),
    ("SELECT cp.begin_time, fact.k, a.v FROM cp, fact, a",
     ["fact.begin_time <= cp.begin_time", "cp.begin_time < fact.end_time",
      "a.k = fact.k", "a.s = 'x'"], [], ""),
    # ORDER BY with ties, DISTINCT, GROUP BY over a reordered join
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "b.s = 'x'"], [], " ORDER BY a.v"),
    ("SELECT b.s, a.v FROM a, b", ["a.k = b.k", "b.w = 1"], [], " ORDER BY 1 DESC"),
    ("SELECT DISTINCT a.k, b.s FROM a, b", ["a.k = b.k", "b.w >= 1", "b.f = 1"], [], ""),
    ("SELECT a.v, COUNT(*), MIN(b.w) FROM a, b",
     ["a.k = b.k", "b.s = 'x'"], [], " GROUP BY a.v"),
    ("SELECT COUNT(*), SUM(a.v) FROM a, b, c",
     ["a.k = b.k", "c.k = b.w", "c.x = 0"], [], ""),
    # correlated subqueries reading an outer alias
    ("SELECT a.k, a.v FROM a", [],
     ["EXISTS (SELECT 1 FROM b, c WHERE b.k = a.k AND c.k = b.w AND c.x = a.v)"], ""),
    ("SELECT a.v, (SELECT COUNT(*) FROM b, c WHERE c.k = b.w AND b.k = a.k AND c.x = 1)"
     " FROM a", [], [], ""),
    # routine variables and a table variable
    ("SELECT c.k, probe(c.k, 'x') FROM c", [], [], ""),
    ("SELECT c.k, via_table_var(c.x) FROM c", [], [], ""),
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "b.w = 1"], ["probe(a.v, b.s) >= 0"], ""),
    # a derived table keeps FROM order around it
    ("SELECT a.v, d.w FROM a, (SELECT k, w FROM b WHERE w = 1) AS d",
     ["a.k = d.k", "a.v = 1"], [], ""),
    ("SELECT a.v, b.w, c.x FROM a JOIN b ON a.k = b.k, c", ["c.k = 1"], [], ""),
    # partial conjuncts that raise: division by zero, cross-class comparison
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "b.w = 1"], ["10 / a.v > 1"], ""),
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k"], ["10 / (a.v - b.w) > 1"], ""),
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "b.w >= 1"], ["a.s < b.k"], ""),
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k", "b.w > 5"], ["a.s < 1"], ""),
    # a cross-class equality is partial like any other: it never keys a
    # probe, so it raises wherever it is evaluated
    ("SELECT a.v, b.w FROM a, b", ["a.k = b.k"], ["a.s = b.w"], ""),
    ("SELECT a.v, b.w FROM a, b", ["b.k = 1"], ["a.s = b.w"], ""),
    ("SELECT a.v FROM a", ["a.k = 1"], ["a.s = 1"], ""),
]
# checked for equal rows and no new errors only: routine bodies (the
# harness cannot strip the total conjuncts out of their WHERE)
LOOSE = [
    ("SELECT c.k, filter_cross(c.k) FROM c", [], [], ""),
    ("SELECT c.k, probe_cross(c.k) FROM c", [], [], ""),
]
STAB = ["fact.begin_time <= cp.begin_time", "cp.begin_time < fact.end_time"]
PERIOD = [
    # hash key + stab on an earlier level's column / a literal
    ("SELECT cp.begin_time, a.v, fact.begin_time FROM cp, a, fact",
     ["fact.k = a.k"] + STAB, [], ""),
    ("SELECT a.v, fact.begin_time, fact.end_time FROM a, fact",
     ["fact.k = a.k", "fact.begin_time <= DATE '2010-01-05'",
      "DATE '2010-01-05' < fact.end_time"], [], ""),
    # hash key + overlap, then the constant-period table as an overlap probe
    ("SELECT fact.begin_time, cp.begin_time, cp.end_time FROM fact, cp",
     ["fact.k = 1", "fact.begin_time < cp.end_time",
      "cp.begin_time < fact.end_time"], [], ""),
    # hash key + one-sided and inclusive/exclusive bounds
    ("SELECT a.v, fact.end_time FROM a, fact",
     ["fact.k = a.k", "fact.end_time > DATE '2010-01-05'"], [], ""),
    ("SELECT a.v, fact.end_time FROM a, fact",
     ["fact.k = a.k", "fact.end_time >= DATE '2010-01-09'"], [], ""),
    ("SELECT a.v, fact.begin_time FROM a, fact",
     ["fact.k = a.k", "fact.begin_time >= DATE '2010-01-05'",
      "fact.begin_time < DATE '2010-02-01'"], [], ""),
    ("SELECT a.v, fact.begin_time FROM a, fact",
     ["a.k = fact.k", "DATE '2010-01-09' > fact.begin_time",
      "fact.end_time >= DATE '2010-01-09'"], [], ""),
    # several bounds per side: the tightest one wins, whichever comes first
    ("SELECT a.v, fact.begin_time, fact.end_time FROM a, fact",
     ["fact.k = a.k", "fact.begin_time < DATE '2010-02-01'",
      "fact.begin_time <= DATE '2010-01-05'", "fact.begin_time > DATE '2009-12-01'",
      "fact.begin_time >= DATE '2010-01-01'", "fact.end_time >= DATE '2010-01-09'",
      "fact.end_time > DATE '2010-01-01'"], [], ""),
    ("SELECT fact.k FROM fact",
     ["fact.begin_time < DATE '2010-02-01'", "fact.begin_time <= DATE '2010-01-05'",
      "fact.end_time > DATE '2010-01-01'", "fact.end_time > DATE '2010-01-05'"],
     [], ""),
    # a begin range over the constant-period table: MAX's outer level
    ("SELECT fact.k, cp.begin_time FROM fact, cp",
     ["fact.begin_time <= cp.begin_time", "cp.begin_time < fact.end_time"], [], ""),
    ("SELECT fact.k, cp.begin_time FROM fact, cp",
     ["cp.begin_time > fact.begin_time", "cp.begin_time <= fact.end_time",
      "cp.end_time >= fact.end_time"], [], ""),
    ("SELECT a.v, fact.k, cp.begin_time FROM a, fact, cp",
     ["fact.k = a.k"] + STAB + ["fact.begin_time <= cp.end_time"],
     ["10 / a.v > 1"], ""),
    # no key: stab, overlap, begin-only range (NULL ends qualify)
    ("SELECT fact.k FROM fact",
     ["fact.begin_time <= DATE '2010-01-05'", "DATE '2010-01-05' < fact.end_time"],
     [], ""),
    ("SELECT fact.k, fact.end_time FROM fact",
     ["fact.begin_time < DATE '2010-01-09'", "DATE '2010-01-05' < fact.end_time",
      "fact.k >= 1"], [], " ORDER BY fact.k"),
    ("SELECT fact.k, fact.end_time FROM fact",
     ["fact.begin_time >= DATE '2010-01-05'"], [], ""),
    # a partial conjunct beside the bounds: the row-at-a-time filters
    ("SELECT fact.k FROM fact",
     ["fact.begin_time > DATE '2010-01-01'", "fact.begin_time <= DATE '2010-01-09'"],
     ["fact.k + 0 = fact.k"], ""),
    ("SELECT fact.k, fact.end_time FROM fact",
     ["fact.begin_time < DATE '2010-01-09'", "DATE '2010-01-05' < fact.end_time",
      "fact.k >= 1"], ["fact.k + 0 = fact.k"], " ORDER BY fact.k"),
]
PAIR = ["a.k = b.k", "b.w = 1"]  # a scan pair that runs b, a
# opaque levels after the scan prefix, joined in FROM order under each
# of its combinations, sorted back into FROM order first
SUFFIX = [
    # a table function reading the second scan
    ("SELECT a.v, b.w, t.x FROM a, b, TABLE(from_c(b.k)) AS t", PAIR, [], ""),
    # two table functions, the second lateral to the first
    ("SELECT a.v, t.x, u.x FROM a, b, TABLE(from_c(b.k)) AS t,"
     " TABLE(from_c(t.x)) AS u", PAIR, ["u.k >= a.v"], " ORDER BY t.x"),
    # a derived table
    ("SELECT a.v, b.w, d.x FROM a, b, (SELECT k, x FROM c WHERE x >= 1) AS d",
     PAIR, ["d.k = a.v"], ""),
    # a scan after a table function keeps FROM order (and its key)
    ("SELECT a.v, t.x, c.x FROM a, b, TABLE(from_c(b.k)) AS t, c",
     PAIR + ["c.k = a.v"], [], ""),
    # a partial conjunct on the function's column that raises
    ("SELECT a.v, t.x FROM a, b, TABLE(from_c(b.k)) AS t", PAIR, ["10 / t.x > 1"], ""),
    # an explicit JOIN
    ("SELECT a.v, c.x, d.k FROM a, b, c JOIN c AS d ON c.x = d.k", PAIR,
     ["c.k = b.w"], ""),
    # an opaque first level: an empty prefix, FROM order throughout
    ("SELECT t.x, a.v, b.w FROM TABLE(from_c(1)) AS t, a, b", PAIR, [], ""),
]
# EXPLAIN's join order per SUFFIX shape (None: FROM order, no line)
SUFFIX_ORDERS = [
    "b, a, t", "b, a, t, u", "b, a, d", "b, a, t, c", "b, a, t", "b, a, c, d", None,
]
REORDERED = [
    q for q in QUERIES if "b.w = 1" in q[1] or "c.x = 1" in q[1]
] + SUFFIX[:1]


def build(a, b, c, fact, cp) -> Database:
    db = Database()
    for ddl in SCHEMA:
        db.execute(ddl)
    for name, rows in (("a", a), ("b", b), ("c", c), ("fact", fact), ("cp", cp)):
        table = db.catalog.get_table(name)
        for row in rows:
            table.insert(list(row))
    for name in ("fact", "cp"):
        db.catalog.get_table(name).declare_interval("begin_time", "end_time")
    return db


def sql_of(head, totals, partials, tail, partial_first):
    conjuncts = partials + totals if partial_first else totals + partials
    where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    return head + where + tail


def outcome(db, sql, planned):
    """('rows', raw rows) or ('error', class), through the engine or
    with the reference executor installed for this one statement."""
    try:
        if planned:
            return "rows", db.execute(sql).rows
        with installed(db):
            return "rows", db.execute(sql).rows
    except SqlError as exc:
        return "error", type(exc)


def check(db, query, partial_first, loose=False):
    head, totals, partials, tail = query
    sql = sql_of(head, totals, partials, tail, partial_first)
    reference = outcome(db, sql, planned=False)
    planned = outcome(db, sql, planned=True)
    if planned == reference:
        return
    # the only licensed difference: the pipeline returned, the nested
    # loop raised on a combination that fails a total conjunct
    assert reference[0] == "error" and planned[0] == "rows", (sql, planned, reference)
    if loose:
        return
    stripped = sql_of(head, [], partials, tail, partial_first)
    assert outcome(db, stripped, planned=True) == reference, (sql, stripped)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=rows_a, b=rows_b, c=rows_c, fact=rows_fact, cp=rows_cp)
def test_pipeline_equals_from_order_nested_loop(a, b, c, fact, cp):
    db = build(a, b, c, fact, cp)
    for partial_first in (False, True):
        for query in QUERIES + SUFFIX:
            check(db, query, partial_first)
        for query in LOOSE:
            check(db, query, partial_first, loose=True)


def test_the_shapes_reorder_and_demote():
    """Sanity for the differential above: its queries do run reordered,
    reject rows at a level, and demote a conjunct at run time; the
    ``SUFFIX`` shapes order only their leading scans."""
    row = (1, "x", 1.0, 1)
    db = build([row, row], [row, (1, "y", 1.0, 1)], [(1, 1)], [], [])
    for query in QUERIES + SUFFIX + LOOSE:
        outcome(db, sql_of(*query, False), planned=True)
    assert db.obs.value("engine.join.reordered") >= len(REORDERED)
    assert db.obs.value("engine.join.level_rejects") > 0
    # `a.s < kk` with an INTEGER kk ran as a partial conjunct
    plans = [entry[2] for entry in db.plan_cache._entries.values()]
    assert any(getattr(plan, "variants", None) for plan in plans)
    for query, order in zip(SUFFIX, SUFFIX_ORDERS):
        text = db.execute("EXPLAIN " + sql_of(*query, False)).text()
        if order is None:
            assert "join order" not in text, text
        else:
            assert f"join order: {order} (emitted in FROM order)" in text, text
    # the scan after the table function is probed by the prefix's key
    assert "HashProbe c on c.k = a.v" in db.execute(
        "EXPLAIN " + sql_of(*SUFFIX[3], False)
    ).text()


# the prefix's combinations as a FROM-order derived table: the reference
# runs it as a nested loop, so it calls ``logged`` once per combination
# that passes the prefix's conjuncts, in FROM order — what the reordered
# pipeline must call it with
LOGGED = (
    "SELECT a.v, b.w, g.x FROM a, b, TABLE(logged(b.k)) AS g"
    " WHERE a.k = b.k AND b.w = 1"
)
LOGGED_REFERENCE = (
    "SELECT p.v, p.w, g.x FROM (SELECT a.v AS v, b.w AS w, b.k AS k FROM a, b"
    " WHERE a.k = b.k AND b.w = 1) AS p, TABLE(logged(p.k)) AS g"
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=rows_a, b=rows_b, c=rows_c)
def test_a_writing_table_function_sees_the_from_order_calls(a, b, c):
    """A ``MODIFIES SQL DATA`` table function after a reordered scan pair
    is called with the same arguments, in the same order and as many
    times as the FROM-order nested loop calls it: its log equals the
    reference's, and so do the rows."""
    db = build(a, b, c, [], [])

    def run(sql, planned):
        db.execute("DELETE FROM log")
        result = outcome(db, sql, planned)
        return result, [row[0] for row in db.execute("SELECT n FROM log").rows]

    planned = run(LOGGED, planned=True)
    assert db.obs.value("engine.join.reordered") > 0
    assert planned == run(LOGGED_REFERENCE, planned=False)
    assert planned[0] == outcome(db, LOGGED, planned=False)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=rows_a, fact=rows_fact, cp=rows_cp)
def test_period_bounds_equal_the_nested_loop(a, fact, cp):
    db = build(a, [], [], fact, cp)
    for partial_first in (False, True):
        for query in PERIOD:
            check(db, query, partial_first)


def test_the_period_shapes_take_their_paths():
    """Sanity for ``PERIOD``: on a history with NULL, forever, zero-length,
    duplicate and equal-begin versions the key probes prune versions by
    their bounds, the probes without a key use the interval index (a
    begin range included), the shapes without a partial conjunct run the
    batch kernels, and no decided conjunct is left as a filter."""
    days = ["2010-01-01", "2010-01-05", "2010-01-09", "2010-02-01", "9999-12-31"]
    fact = [
        (1, days[0], days[2]), (1, days[1], days[4]), (1, days[1], days[4]),
        (1, days[2], days[2]), (1, days[1], Null), (2, Null, days[3]),
        (2, days[0], days[1]),
    ]
    cp = [(days[0], days[1]), (days[1], days[2]), (days[2], days[3]), (Null, days[3])]
    db = build([(1, "x", 1.0, 1), (2, "y", 2.0, 2)], [], [], fact, cp)
    for query in PERIOD:
        check(db, query, False)
    assert db.obs.value("engine.period_probe.rows_pruned") > 0
    assert db.obs.value("engine.interval_index_hits") > 0
    assert db.obs.value("engine.vectorized_batches") > 0
    probes = [
        level for entry in db.plan_cache._entries.values()
        for level in entry[2].pipeline.levels if level.period is not None
    ]
    assert any(level.key is not None for level in probes)
    # a begin range without a key: MAX's constant-period level
    assert any(
        level.key is None
        and any(bound[0] == _BEGIN_FROM for bound in level.period.bounds)
        for level in probes
    )
    for head, totals, partials, tail in PERIOD:
        sql = sql_of(head, totals, partials, tail, False)
        levels = build_select_plan(db._executor, parse_statement(sql)).pipeline.levels
        # each total conjunct is applied once: as a hash key, as a
        # period bound, or — only when neither decides it — as a filter
        assert sum(
            len(level.filters) + (level.key is not None)
            + (0 if level.period is None else len(level.period.bounds))
            for level in levels
        ) == len(totals), sql


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=rows_a, b=rows_b, c=rows_c, extra=st.tuples(INTS, CHARS, FLOATS, INTS))
def test_after_rollback_of_an_insert(a, b, c, extra):
    """A rolled-back insert restores the table version; the next insert
    climbs back to the same version over different rows.  Position maps
    and hash indexes built in the rolled-back window must be gone."""
    db = build(a, b, c, [], [])
    db.execute("BEGIN")
    db.catalog.get_table("b").insert([1, "x", 1.0, 1])
    for query in REORDERED:
        check(db, query, False)
    db.execute("ROLLBACK")
    db.catalog.get_table("b").insert(list(extra))
    for query in REORDERED:
        check(db, query, False)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=rows_a, b=rows_b, c=rows_c)
def test_with_a_second_session_open(a, b, c):
    """With a second session holding uncommitted writes, the root
    session's joins read snapshot views — and still agree."""
    db = build(a, b, c, [], [])
    session = db.create_session("writer")
    root = db.root_txn
    db.activate_txn(session)
    db.execute("BEGIN")
    db.execute("INSERT INTO b VALUES (1, 'x', 1.0, 1)")
    db.execute("UPDATE a SET v = 1 WHERE k = 1")
    for txn in (root, session):  # the writer reads its own writes
        db.activate_txn(txn)
        for query in REORDERED:
            check(db, query, False)
    db.execute("ROLLBACK")
    db.activate_txn(root)
    db.close_session(session)
    for query in REORDERED:
        check(db, query, False)


class TestWorkBound:
    """q8 on DS1-SMALL × 365 d: the join inside ``max_short_book_title``
    starts from the probed author's links, the stab conjuncts reject
    dead author versions before the routine-bearing conjunct runs, and
    the body runs once per read window.  PERST q2 / q2b / q3 on the same
    data start from the probed link's versions although a table function
    follows the scans.  The counts repeat exactly, so neither the nested
    loop, one run per slice nor a pass over ``item`` can come back
    unnoticed."""

    def test_q8_routine_calls_and_rows_scanned(self):
        from repro.taubench import build_dataset, get_query
        from repro.temporal import SlicingStrategy
        from repro.temporal.constant_periods import compute_constant_periods
        from repro.temporal.period import Period
        from repro.sqlengine.values import Date

        dataset = build_dataset("DS1", "SMALL")
        stratum, db = dataset.stratum, dataset.stratum.db
        spec = get_query("q8")
        spec.install(dataset)
        begin, end = "2010-02-01", "2011-02-01"
        sql = spec.sequenced_sql(dataset, begin, end)
        stratum.execute(sql, strategy=SlicingStrategy.MAX)  # warm: plans, indexes

        name = "max_short_book_title"

        def measured():
            stats = db.stats
            before = (
                stats.routine_calls.get(name, 0),
                stats.routine_reuses.get(name, 0),
                stats.rows_scanned,
            )
            stratum.execute(sql, strategy=SlicingStrategy.MAX)
            after = (
                stats.routine_calls[name], stats.routine_reuses[name],
                stats.rows_scanned,
            )
            return tuple(b - a for a, b in zip(before, after))

        calls, reused, scanned = measured()
        assert measured() == (calls, reused, scanned)  # the counts repeat exactly

        context = Period(Date.from_iso(begin).ordinal, Date.from_iso(end).ordinal)
        periods = compute_constant_periods(
            db, ["author", "item", "item_author"], stratum.registry, context
        )
        author = db.catalog.get_table("author")
        aid = author.column_index("author_id")
        b, e = author.column_index("begin_time"), author.column_index("end_time")
        versions = [r for r in author.rows if r[aid] == dataset.probe_author_id]
        alive = sum(
            1 for p in periods
            if any(r[b].ordinal <= p.begin < r[e].ordinal for r in versions)
        )
        # exactly one invocation per slice in which the probed author is
        # alive, run or served by the result memo
        assert 0 < calls + reused == alive <= len(periods)
        links = db.catalog.get_table("item_author")
        item = db.catalog.get_table("item")
        link_rows = [
            r for r in links.rows
            if r[links.column_index("author_id")] == dataset.probe_author_id
        ]
        item_ids = {r[links.column_index("item_id")] for r in link_rows}
        item_versions = sum(
            1 for r in item.rows if r[item.column_index("id")] in item_ids
        )
        # the body runs once per distinct read window: the cell of the
        # author's links' bounds the slice begins in, cut by the cells of
        # the item versions behind each link alive there
        lid, iid = links.column_index("item_id"), item.column_index("id")

        def cell(rows, point):
            bounds = [v.ordinal for r in rows for v in r[-2:]]
            return (
                max((x for x in bounds if x <= point), default=None),
                min((x for x in bounds if x > point), default=None),
            )

        windows = set()
        for p in periods:
            if any(r[b].ordinal <= p.begin < r[e].ordinal for r in versions):
                cells = [cell(link_rows, p.begin)] + [
                    cell([r for r in item.rows if r[iid] == link[lid]], p.begin)
                    for link in link_rows
                    if link[-2].ordinal <= p.begin < link[-1].ordinal
                ]
                windows.add((
                    max(lo for lo, _ in cells if lo is not None),
                    min(hi for _, hi in cells if hi is not None),
                ))
        assert calls == len(windows) < alive

        # per run: the author's links, then each link's item versions —
        # never |item|; the outer statement adds its own author/cp scans
        per_call = len(link_rows) + len(link_rows) * item_versions
        outer = len(versions) * (1 + len(periods))
        assert scanned <= calls * per_call + outer
        assert scanned < calls * len(item.rows)

    # PERST query → (link table, its probed column, the dataset's probe
    # attribute, the function body's table and key, SELECTs in the body)
    PERST_LINKS = {
        "q2": ("item_author", "author_id", "cold_author_id", "author", "author_id", 1),
        "q2b": ("item_author", "author_id", "cold_author_id", "author", "author_id", 2),
        "q3": ("item_publisher", "item_id", "probe_item_id", "publisher",
               "publisher_id", 1),
    }

    @pytest.mark.parametrize("name", sorted(PERST_LINKS))
    def test_perst_joins_start_from_the_probed_link(self, name):
        """PERST appends the routine's table function after ``item`` and
        the link table; the two scans still run link first, keyed by the
        literal, then ``item`` by id — never a pass over ``item``."""
        from repro.taubench import build_dataset, get_query
        from repro.temporal import SlicingStrategy
        from repro.sqlengine.values import Date

        dataset = build_dataset("DS1", "SMALL")
        stratum, db = dataset.stratum, dataset.stratum.db
        spec = get_query(name)
        spec.install(dataset)
        begin, end = "2010-02-01", "2011-02-01"
        sql = spec.sequenced_sql(dataset, begin, end)
        stratum.execute(sql, strategy=SlicingStrategy.PERST)  # warm

        def measured():
            stats = db.stats
            before = (sum(stats.routine_calls.values()), stats.rows_scanned)
            stratum.execute(sql, strategy=SlicingStrategy.PERST)
            return sum(stats.routine_calls.values()) - before[0], stats.rows_scanned - before[1]

        calls, scanned = measured()
        assert measured() == (calls, scanned)  # the counts repeat exactly

        link_name, column, probe, body_name, body_key, selects = self.PERST_LINKS[name]
        links, item, body = (
            db.catalog.get_table(t) for t in (link_name, "item", body_name)
        )

        def versions(table, column, value):
            index = table.column_index(column)
            return [r for r in table.rows if r[index] == value]

        link_rows = versions(links, column, getattr(dataset, probe))
        item_versions = sum(
            len(versions(item, "id", r[links.column_index("item_id")]))
            for r in link_rows
        )
        argument = links.column_index(body_key)
        body_versions = sum(
            len(versions(body, body_key, value))
            for value in {r[argument] for r in link_rows}
        )
        assert scanned <= len(link_rows) + item_versions + calls * selects * body_versions
        lo, hi = Date.from_iso(begin).ordinal, Date.from_iso(end).ordinal
        overlapping = sum(
            1 for r in item.rows if r[-2].ordinal < hi and lo < r[-1].ordinal
        )
        assert scanned < overlapping
        link_alias = "ia" if link_name == "item_author" else "ip"
        text = stratum.execute("EXPLAIN " + sql, strategy=SlicingStrategy.PERST).text()
        assert f"join order: {link_alias}, i, taupsm_f (emitted in FROM order)" in text
        assert f"HashProbe item AS i on i.id = {link_alias}.item_id" in text

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
duplicate and equal-begin versions.  Which conjuncts a keyless level
tests as typed filters and which the residual evaluates follows from
the statement: the shapes with a partial conjunct beside the bounds
leave it to the residual.

``STAB`` holds the probes a stab structure may answer (``begin <= p <
end`` with a key or without) beside ones it must not (other limits, a
point-free filter under an open read window, a window open at another
point), on a table with two declared period pairs.  The stab path must
equal the full pass it replaces — rows and order, the narrowed window
and every work counter — and be taken exactly where it is allowed.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.interval_index import ChangePoints
from repro.sqlengine.errors import SqlError
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.planner import _BEGIN_FROM, build_select_plan
from repro.sqlengine.values import Date, Null
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

# aggregates over probe joins keyed by routine variables: an ungrouped
# COUNT(*) over three levels, a SUM (NULL over zero rows), a grouped
# select read row by row; NULL arguments key nothing
SCHEMA += [
    """CREATE FUNCTION agg_count (kk INTEGER, ss CHAR(4)) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT COUNT(*) FROM a, b, c
                 WHERE a.k = b.k AND b.w = kk AND c.k = a.v AND a.s = ss);
       END""",
    """CREATE FUNCTION agg_sum (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE total INTEGER;
         SELECT SUM(c.x) INTO total FROM b, c WHERE c.k = b.k AND b.w = kk;
         RETURN COALESCE(total, -1);
       END""",
    """CREATE FUNCTION agg_groups (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE total INTEGER DEFAULT 0;
         FOR g AS SELECT a.v AS v, COUNT(*) AS n, MIN(c.x) AS m FROM a, b, c
                  WHERE a.k = b.k AND b.w = kk AND c.k = a.v
                  GROUP BY a.v ORDER BY a.v DO
           SET total = total * 10 + g.n + COALESCE(g.m, 5) + COALESCE(g.v, 7);
         END FOR;
         RETURN total;
       END""",
    # the same joins with a partial conjunct that raises on some
    # combinations, and with an operand of the wrong class (demoted)
    """CREATE FUNCTION agg_div (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT COUNT(*) FROM a, b, c
                 WHERE a.k = b.k AND b.w = kk AND c.k = a.v AND 10 / c.x > 1);
       END""",
    """CREATE FUNCTION agg_cross (kk INTEGER) RETURNS INTEGER
       READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT SUM(a.v) FROM a, b WHERE a.k = b.k AND b.w >= 0 AND a.s = kk);
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
# aggregates over 2- and 3-level probe joins: over zero rows COUNT(*) is
# 0 and SUM NULL; partial conjuncts that raise on some combinations
AGGREGATE = [
    ("SELECT COUNT(*), SUM(c.x) FROM a, b, c",
     ["a.k = b.k", "b.w = c.k", "c.x = 1"], ["10 / a.v > 0"], ""),
    ("SELECT COUNT(*) FROM a, b", ["a.k = b.k", "b.w = 1"], ["10 / (a.v - b.w) > 0"], ""),
    ("SELECT a.v, COUNT(*), SUM(b.w) FROM a, b",
     ["a.k = b.k", "b.w = 1"], ["10 / a.v > 0"], " GROUP BY a.v ORDER BY a.v"),
    ("SELECT c.k, c.x, agg_count(c.x, 'x'), agg_sum(c.k), agg_groups(c.x) FROM c",
     [], [], " ORDER BY c.k, c.x"),
]
# checked for equal rows and no new errors only: routine bodies (the
# harness cannot strip the total conjuncts out of their WHERE)
LOOSE = [
    ("SELECT c.k, filter_cross(c.k) FROM c", [], [], ""),
    ("SELECT c.k, probe_cross(c.k) FROM c", [], [], ""),
    ("SELECT c.k, agg_div(c.x) FROM c", [], [], ""),
    ("SELECT c.k, agg_cross(c.k) FROM c", [], [], ""),
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
        for query in QUERIES + SUFFIX + AGGREGATE:
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
    plans = [plan for _, plan in db.plan_cache.values()]
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
    begin range included), and no decided conjunct is left as a filter."""
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
    probes = [
        level for _, plan in db.plan_cache.values()
        for level in plan.pipeline.levels if level.period is not None
    ]
    assert any(level.key is not None for level in probes)
    # a begin range without a key: MAX's constant-period level
    assert any(
        level.key is None
        and any(bound[0] == _BEGIN_FROM for bound in level.period.bounds)
        for level in probes
    )
    aligned = 0
    for head, totals, partials, tail in PERIOD:
        sql = sql_of(head, totals, partials, tail, False)
        pipeline = build_select_plan(db._executor, parse_statement(sql)).pipeline
        # each total conjunct is applied once: as a hash key (an aligned
        # join's key parts), as a period bound, or — only when neither
        # decides it — as a filter (an aligned join's per combination)
        alignment = pipeline.alignment
        aligned += alignment is not None
        assert sum(
            len(level.filters) + (level.key is not None)
            + (0 if level.period is None else len(level.period.bounds))
            for level in pipeline.levels
        ) + (
            0 if alignment is None
            else sum(map(len, alignment.keys)) + alignment.leaf_tests
        ) == len(totals), sql
    # the stabs at cp.begin_time without a key are aligned
    assert aligned > 0


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
            counters = (
                "engine.routine.calls." + name,
                "engine.routine.reuses." + name,
                "engine.rows_scanned",
            )
            before = [db.obs.value(counter) for counter in counters]
            stratum.execute(sql, strategy=SlicingStrategy.MAX)
            return tuple(db.obs.value(c) - b for c, b in zip(counters, before))

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
            obs = db.obs
            before = (obs.sum_prefix("engine.routine.calls."), obs.value("engine.rows_scanned"))
            stratum.execute(sql, strategy=SlicingStrategy.PERST)
            return (
                obs.sum_prefix("engine.routine.calls.") - before[0],
                obs.value("engine.rows_scanned") - before[1],
            )

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


def test_a_plan_is_invalidated_between_two_invocations():
    """q11's shape: each call re-creates a temporary table by CTAS, whose
    column types follow the data.  The SELECT over it was planned with
    ``c.k = p.z`` a numeric probe; when a call re-creates ``z`` as text
    the plan must go (the comparison is partial now, and raises as the
    nested loop does) and come back for the next numeric call."""
    row_a = [(1, "x", 1.0, 1), (2, "y", 2.0, 2)]
    db = build(row_a, [(1, "x", 1.0, 1), (2, "y", 2.0, 1)], [(1, 5), (2, 6), (2, 7)], [], [])
    db.execute(
        """CREATE PROCEDURE retyped (kk INTEGER) LANGUAGE SQL
           BEGIN
             CREATE TEMPORARY TABLE pricey AS (
               SELECT CASE WHEN kk = 1 THEN a.v ELSE a.s END AS z, b.w AS w
               FROM a, b WHERE a.k = b.k);
             SELECT p.z, p.w, c.x FROM pricey p, c WHERE c.k = p.z AND p.w >= 0
             ORDER BY p.w;
           END"""
    )

    def called(kk, planned):
        try:
            if planned:
                results = db.execute(f"CALL retyped({kk})")
            else:
                with installed(db):
                    results = db.execute(f"CALL retyped({kk})")
        except SqlError as exc:
            return "error", type(exc)
        return "rows", [result.rows for result in results]

    outcomes = []
    for kk in (1, 2, 1):
        outcomes.append(called(kk, planned=True))
        assert outcomes[-1] == called(kk, planned=False), kk
    assert outcomes[0] == outcomes[2] == ("rows", [[[1, 1, 5], [2, 1, 6], [2, 1, 7]]])
    assert outcomes[1][0] == "error"
    assert db.obs.value("engine.plan_invalidated") == 2


# -- the stab path ≡ the full pass ---------------------------------------------

STAB_BASE = Date.from_iso("2010-01-01").ordinal
STAB_BOUNDS = st.sampled_from([Null, 0, 1, 2, 3, 4, 5, Date.MAX_ORDINAL - STAB_BASE])
rows_h = st.lists(
    st.tuples(st.sampled_from([Null, 0, 1, 2]), INTS, STAB_BOUNDS, STAB_BOUNDS,
              STAB_BOUNDS, STAB_BOUNDS),
    max_size=8,
)
STAB_POINTS = [-1, 1, 3, Date.MAX_ORDINAL - STAB_BASE - 1]
# (SQL over {k} and the days {p}, {q} = {p} + 1; a stab?; keyed?; a
# point-free filter?)
STAB = [
    ("SELECT v FROM h WHERE k = {k} AND vb <= {p} AND {p} < ve", True, True, False),
    ("SELECT v, tb FROM h WHERE te > {p} AND k = {k} AND tb <= {p}", True, True, False),
    ("SELECT v FROM h WHERE k = {k} AND vb <= {p} AND {p} < ve AND v > 0",
     True, True, True),
    ("SELECT v FROM h WHERE k = {k} AND vb <= {p} AND {q} < ve", False, True, False),
    ("SELECT v FROM h WHERE k = {k} AND vb >= {p} AND {p} < ve", False, True, False),
    ("SELECT v FROM h WHERE k = {k} AND vb < {q}", False, True, False),
    ("SELECT v FROM h WHERE vb <= {p} AND {p} < ve", True, False, False),
    ("SELECT v FROM h WHERE tb <= {p} AND {p} < te AND v > 0", True, False, True),
    ("SELECT v FROM h WHERE vb <= {p} AND {q} < ve", False, False, False),
    ("SELECT v FROM h WHERE vb <= {p} AND {q} <= ve", True, False, False),
]
STAB_COUNTERS = [
    "engine.rows_scanned", "engine.period_probe.rows_pruned",
    "engine.interval_rows_pruned", "engine.read_window.versions_waived",
    "engine.stab.served", "engine.stab.full_pass.too_wide",
    "engine.stab.full_pass.window_point", "engine.stab.full_pass.point_free_filter",
]


def build_h(rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE h (k INTEGER, v INTEGER, vb DATE, ve DATE, tb DATE, te DATE)")
    table = db.catalog.get_table("h")
    table.declare_interval("vb", "ve")
    table.declare_interval("tb", "te")
    for row in rows:
        table.insert(list(row[:2]) + [
            bound if bound is Null else Date(STAB_BASE + bound) for bound in row[2:]
        ])
    return db


def stab_run(db, sql, window) -> tuple:
    """Rows, the read window after the statement and the counter deltas."""
    before = [db.obs.value(name) for name in STAB_COUNTERS]
    db.read_window = None if window is None else list(window)
    try:
        rows = db.execute(sql).rows
        narrowed = db.read_window
    finally:
        db.read_window = None
    return rows, narrowed, [
        db.obs.value(name) - then for name, then in zip(STAB_COUNTERS, before)
    ]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_h, duplicates=st.integers(0, 3))
def test_the_stab_path_equals_the_full_pass(rows, duplicates):
    rows = rows + rows[:duplicates]
    stab, full = build_h(rows), build_h(rows)
    inf = float("inf")
    for offset in STAB_POINTS:
        point = STAB_BASE + offset
        days = {
            name: f"DATE '{Date(STAB_BASE + day).to_iso()}'"
            for name, day in (("p", offset), ("q", offset + 1))
        }
        windows = [None, (-inf, inf, point), (point - 1, point + 2, point),
                   (-inf, inf, point + 1)]
        for template, stabs, keyed, free in STAB:
            for k in (0, 3) if keyed else (0,):
                sql = template.format(k=k, **days)
                for window in windows:
                    with pytest.MonkeyPatch.context() as patch:
                        # every structure too wide: the full pass everywhere
                        patch.setattr(ChangePoints, "fill", lambda self, entries, n: self)
                        *expected, full_counts = stab_run(full, sql, window)
                    *found, counts = stab_run(stab, sql, window)
                    assert found == expected, (sql, window)
                    assert counts[:4] == full_counts[:4], (sql, window)
                    # where the stab path is taken, and why not elsewhere
                    served = window_point = free_filter = 0
                    probed = not keyed or any(row[0] == k for row in rows)
                    if stabs and probed:
                        if not keyed or window is None:
                            served = 1
                        elif window[2] != point:
                            window_point = 1
                        elif free:
                            free_filter = 1
                        else:
                            served = 1
                    assert counts[4:] == [served, 0, window_point, free_filter], (
                        sql, window
                    )
                    assert full_counts[4] == 0

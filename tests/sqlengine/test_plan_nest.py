"""Differential: a planned statement runs as one function generated per
plan shape (``planner._nest``), and that function ≡ the reference
FROM-order nested loop (``tests/reference_executor.py``).

Random small tables — NULL, blank-padded CHAR, NaN and DATE keys, NULL
and equal period bounds — under statements over one to three base
tables plus a view or a derived table: hash-probed, interval-index and
full-scan levels, a reordered scan prefix, an outer operand of the wrong
class (its conjunct demoted for the execution), a residual, grouped
output whose key or argument raises, ORDER BY on expressions and DESC,
DISTINCT, and the rows an UPDATE / DELETE matches.  For each:

* rows and their order equal the reference's; where the reference
  raises, the plan raises the same class, or returns only because the
  raising combination fails a total conjunct (the pipeline's rule,
  ``test_join_pipeline.py``);
* the levels' counters add up: every scan level takes in what it was
  counted as scanning, ``engine.join.level_rejects`` is what the scan
  levels took in and did not pass on, and a lone level with nothing
  after it passes on exactly the rows returned, and on one fixed history
  every level's rows in / out and the counters equal pinned values;
* under an open read window at a stabbed point, the window the
  statement leaves is sound: the reference returns the same rows at
  every point of it.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.errors import SqlError
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date, Null

from tests.reference_executor import installed

BASE = Date.from_iso("2010-01-01").ordinal
NAN = float("nan")

KEYS = st.sampled_from([Null, 0, 1, 1, 2])
CHARS = st.sampled_from([Null, "x", "x  ", "y", ""])
FLOATS = st.sampled_from([Null, -1.5, 0.0, 1.0, 2.5, NAN])
DAYS = st.sampled_from([Null, 0, 1, 2, 3, 5])
ROWS = st.lists(st.tuples(KEYS, CHARS, FLOATS, DAYS, DAYS), max_size=6)


def day(offset):
    return offset if offset is Null else Date(BASE + offset)


def literal(offset: int) -> str:
    return f"DATE '{Date(BASE + offset).to_iso()}'"


def build(a, b, c) -> Database:
    db = Database()
    db.execute("CREATE TABLE a (k INTEGER, c CHAR(3), v FLOAT, vb DATE, ve DATE)")
    db.execute("CREATE TABLE b (k INTEGER, c CHAR(3), w FLOAT, vb DATE, ve DATE)")
    db.execute("CREATE TABLE c (k INTEGER, c CHAR(3), d DATE)")
    for name in ("a", "b"):
        db.catalog.get_table(name).declare_interval("vb", "ve")
    db.insert_rows("a", [[k, s, v, day(x), day(y)] for k, s, v, x, y in a])
    db.insert_rows("b", [[k, s, v, day(x), day(y)] for k, s, v, x, y in b])
    db.insert_rows("c", [[k, s, day(x)] for k, s, _, x, _ in c])
    db.execute("CREATE VIEW vw AS SELECT k, c FROM b WHERE w > 0")
    return db


P = literal(2)
QUERIES = [
    # a full scan with typed tests, ORDER BY an expression and DESC
    "SELECT k, c, v FROM a WHERE v >= 0 AND c <> 'y' ORDER BY v DESC, c",
    "SELECT k, v FROM a ORDER BY v + 0, k DESC",
    # hash probes: the literal key reorders the prefix (b before a)
    "SELECT a.k, b.w, a.c FROM a, b WHERE a.k = b.k AND b.c = 'x'",
    "SELECT a.v, b.c FROM a, b WHERE b.c = a.c AND a.k = 1 ORDER BY 1, 2",
    # a hash key with a period stab, an overlap, a one-sided bound
    "SELECT a.k, b.w FROM a, b WHERE b.k = a.k AND b.vb <= a.vb AND a.vb < b.ve",
    "SELECT a.k, b.k FROM a, b WHERE b.k = a.k AND b.vb < a.ve AND a.vb < b.ve",
    "SELECT a.k, b.w FROM a, b WHERE b.k = a.k AND b.ve > a.vb",
    # interval-index levels: a stab and a begin range at literals
    f"SELECT k, v FROM a WHERE vb <= {P} AND {P} < ve",
    f"SELECT a.k, c.k FROM c, a WHERE a.vb >= c.d AND a.vb <= {literal(4)}",
    # three levels, a residual, DISTINCT
    "SELECT DISTINCT a.c, c.c FROM a, b, c WHERE a.k = b.k AND c.k = b.k AND a.v + 0 < b.w",
    # a view and a derived table after the scan prefix
    "SELECT a.k, vw.c FROM b, a, vw WHERE a.k = b.k AND vw.k = a.k",
    "SELECT a.k, s.n FROM a, (SELECT k, COUNT(*) AS n FROM c GROUP BY k) s WHERE s.k = a.k",
    # outer operands of the wrong class: demoted, the residual raises
    "SELECT a.k FROM a, c WHERE c.k = a.k AND a.c > 1",
    "SELECT k FROM a WHERE v = 'x' AND k > 5",
    # grouped: a key or an argument that raises, HAVING, ORDER BY
    "SELECT a.c, COUNT(*), SUM(b.w) FROM a, b WHERE a.k = b.k GROUP BY a.c ORDER BY 2 DESC, 1",
    "SELECT COUNT(*) FROM a GROUP BY 10 / a.k",
    "SELECT a.c, SUM(10 / a.k) FROM a GROUP BY a.c HAVING a.c = 'y'",
    "SELECT COUNT(*), MAX(a.v) FROM a, b WHERE a.k = b.k AND b.c = 'q'",
]
# the rows an UPDATE / DELETE matches, against the reference's SELECT *
MATCHES = [
    "UPDATE a SET v = v + 1 WHERE k = 1 AND c = 'x'",
    f"DELETE FROM a WHERE vb <= {P} AND {P} < ve",
    "UPDATE b SET w = 0 WHERE k = 1 AND w + 0 > 0",
    "DELETE FROM b WHERE c > 1",
]
# stabbed at a point under an open read window there
WINDOWED = [
    "SELECT a.k, b.w FROM a, b WHERE b.k = a.k AND b.vb <= {p} AND {p} < b.ve",
    "SELECT a.k, b.w FROM a, b WHERE b.k = a.k AND b.vb <= {p} AND {p} < b.ve AND b.w > 0",
    "SELECT k FROM a WHERE vb <= {p} AND {p} < ve AND v > 0",
    "SELECT a.k, c.k FROM c, a WHERE a.k = c.k",
]


def outcome(db, sql, reference, stmt=None):
    """('rows', rows — a NaN as ``"NaN"``) or ('error', class) of ``sql``
    (parsed as ``stmt``)."""
    stmt = stmt or parse_statement(sql)
    try:
        if reference:
            with installed(db):
                rows = db.execute_ast(stmt).rows
        else:
            rows = db.execute_ast(stmt).rows
    except SqlError as exc:
        return "error", type(exc)
    return "rows", [["NaN" if value != value else value for value in row] for row in rows]


def levels(db) -> dict:
    """Every cached plan's levels, variants included: (rows in, out)."""
    return {
        level: (level.rows_in, level.rows_out)
        for _, plan in db.plan_cache.values() if hasattr(plan, "pipeline")
        for pipeline in (plan.pipeline, *plan.variants.values())
        for level in pipeline.levels
    }


def check_counters(db, stmt, before, scanned, rejects, result):
    """The counters of a statement that returned ``result`` add up."""
    sql = stmt.to_sql()
    after = levels(db)
    moved = {
        level: (rows_in - before.get(level, (0, 0))[0], rows_out - before.get(level, (0, 0))[1])
        for level, (rows_in, rows_out) in after.items()
    }
    scans = [(level, d) for level, d in moved.items() if hasattr(level.node, "pairs")]
    assert all(0 <= out <= rows_in for _, (rows_in, out) in moved.items()), sql
    assert db.obs.value("engine.rows_scanned") - scanned == sum(d[0] for _, d in scans), sql
    assert db.obs.value("engine.join.level_rejects") - rejects == sum(
        rows_in - out for _, (rows_in, out) in scans
    ), sql
    plan = db.executor.plan(stmt, None)
    lone = len(plan.pipeline.levels) == 1 and not plan.pipeline.residual
    if lone and not plan.grouped and not plan.distinct:
        assert moved[plan.pipeline.levels[0]][1] == len(result[1]), sql


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=ROWS, b=ROWS, c=ROWS)
def test_generated_plans_equal_the_nested_loop(a, b, c):
    db = build(a, b, c)
    for sql in QUERIES:
        reference = outcome(db, sql, True)
        before = levels(db)
        scanned = db.obs.value("engine.rows_scanned")
        rejects = db.obs.value("engine.join.level_rejects")
        stmt = parse_statement(sql)
        planned = outcome(db, sql, False, stmt)
        if planned != reference:
            # licensed: the raising combination failed a total conjunct
            assert reference[0] == "error" and planned[0] == "rows", (sql, planned, reference)
        if planned[0] == "rows":  # a raise leaves the loops it left uncounted
            check_counters(db, stmt, before, scanned, rejects, planned)
    for sql in MATCHES:
        stmt = parse_statement(sql)
        table = stmt.table
        where = sql[sql.index(" WHERE "):]
        try:
            _, rows, _ = db.executor.match(stmt)
        except SqlError as exc:
            matched = "error", type(exc)
        else:
            matched = "rows", [["NaN" if value != value else value for value in row] for row in rows]
        expected = outcome(db, f"SELECT * FROM {table}{where}", True)
        if matched != expected:
            assert expected[0] == "error" and matched[0] == "rows", (sql, matched, expected)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=ROWS, b=ROWS, c=ROWS, at=st.sampled_from([0, 1, 2, 3]))
def test_the_window_left_open_is_sound(a, b, c, at):
    db = build(a, b, c)
    for template in WINDOWED:
        sql = template.format(p=literal(at))
        db.read_window = [BASE - 10, BASE + 10, BASE + at]
        try:
            rows = outcome(db, sql, False)
            lo, hi, _ = db.read_window
        finally:
            db.read_window = None
        assert rows == outcome(db, sql, True), sql
        assert lo <= BASE + at < hi
        for point in range(max(lo, BASE - 10), min(hi, BASE + 10)):
            moved = template.format(p=literal(point - BASE))
            assert outcome(db, moved, True) == rows, (sql, point)


def test_the_shapes_take_every_access_path():
    """Sanity for the differentials above: on one fixed history their
    statements probe, search interval indexes, scan, reorder, demote and
    run a stab."""
    rows = [(1, "x", 1.0, 0, 5), (1, "x  ", NAN, 1, 3), (1, "y", -1.5, 1, 4), (2, "y", 2.5, 2, 2),
            (Null, Null, Null, Null, 1), (0, "x", -1.5, 0, 9)]
    db = build(rows, rows, rows)
    for sql in QUERIES:
        outcome(db, sql, False)
    # a's bounds leave b's to narrow, the first one rejected by b.w > 0
    windowed = build([(1, "x", 1.0, 0, 9)], rows[2:] + rows, rows)
    for template in WINDOWED:
        windowed.read_window = [BASE - 10, BASE + 10, BASE + 2]
        try:
            outcome(windowed, template.format(p=literal(2)), False)
        finally:
            windowed.read_window = None
    assert windowed.obs.value("engine.read_window.versions_waived") > 0
    kinds = {
        level.access[0]
        for _, plan in db.plan_cache.values() if hasattr(plan, "pipeline")
        for level in plan.pipeline.levels
    }
    assert {"HashProbe", "IntervalIndexScan", "Scan"} <= kinds
    for counter in ("engine.join.reordered", "engine.join.level_rejects",
                    "engine.interval_index_hits", "engine.period_probe.rows_pruned"):
        assert db.obs.value(counter) > 0, counter
    assert any(plan.variants for _, plan in db.plan_cache.values() if hasattr(plan, "variants"))


# an independent reference for the counters: on the fixed history of
# ``test_the_shapes_take_every_access_path``, per statement of QUERIES then
# MATCHES, its levels' (rows in, out) — variants' levels after the
# pipeline's — and the PINNED_COUNTERS' deltas, as the pipeline of
# per-level closure steps the generated plan function replaced counted them
PINNED_COUNTERS = [
    "engine.rows_scanned", "engine.join.level_rejects", "engine.period_probe.rows_pruned",
    "engine.interval_index_hits", "engine.join.reordered", "engine.interval_rows_pruned",
    "engine.stab.served",
]
PINNED = [
    ([(6, 2)], [6, 4, 0, 0, 0, 0, 0]),
    ([(6, 6)], [6, 0, 0, 0, 0, 0, 0]),
    ([(3, 3), (7, 7)], [10, 0, 0, 0, 1, 0, 0]),
    ([(3, 3), (8, 8)], [11, 0, 0, 0, 0, 0, 0]),
    ([(6, 6), (8, 8)], [14, 0, 3, 0, 0, 0, 5]),
    ([(6, 6), (10, 10)], [16, 0, 1, 0, 0, 0, 0]),
    ([(6, 6), (10, 10)], [16, 0, 1, 0, 0, 0, 0]),
    ([(4, 4)], [4, 0, 0, 1, 0, 2, 1]),
    ([(6, 6), (17, 17)], [23, 0, 0, 6, 0, 19, 0]),
    ([(6, 6), (11, 11), (29, 29)], [46, 0, 0, 0, 0, 0, 0]),
    ([(6, 6), (11, 11), (33, 33)], [83, 33, 0, 0, 0, 0, 0]),
    ([(6, 6), (24, 24)], [42, 0, 0, 0, 0, 0, 0]),
    ([(0, 0), (0, 0), (0, 0), (0, 0)], [9, 0, 0, 0, 0, 0, 0]),
    ([(0, 0), (6, 0)], [6, 6, 0, 0, 0, 0, 0]),
    ([(6, 6), (11, 11)], [17, 0, 0, 0, 0, 0, 0]),
    ([(6, 6)], [6, 0, 0, 0, 0, 0, 0]),
    ([(6, 6)], [6, 0, 0, 0, 0, 0, 0]),
    ([(0, 0), (0, 0)], [0, 0, 0, 0, 1, 0, 0]),
    ([(3, 2)], [3, 1, 0, 0, 0, 0, 0]),
    ([(4, 4)], [4, 0, 0, 1, 0, 2, 1]),
    ([(3, 3)], [3, 0, 0, 0, 0, 0, 0]),
    ([(0, 0), (0, 0)], [6, 0, 0, 0, 0, 0, 0]),
]


def test_the_fixed_history_counts_what_was_pinned():
    rows = [(1, "x", 1.0, 0, 5), (1, "x  ", NAN, 1, 3), (1, "y", -1.5, 1, 4), (2, "y", 2.5, 2, 2),
            (Null, Null, Null, Null, 1), (0, "x", -1.5, 0, 9)]
    db = build(rows, rows, rows)
    for sql, (pinned_levels, pinned_deltas) in zip(QUERIES + MATCHES, PINNED, strict=True):
        before = [db.obs.value(name) for name in PINNED_COUNTERS]
        stmt = parse_statement(sql)
        try:
            db.executor.match(stmt) if sql in MATCHES else db.execute_ast(stmt)
        except SqlError:
            pass
        plan = db.executor.plan(stmt, None)
        counted = [
            (level.rows_in, level.rows_out)
            for pipeline in (plan.pipeline, *plan.variants.values()) for level in pipeline.levels
        ]
        assert counted == pinned_levels, sql
        assert [db.obs.value(n) - b for n, b in zip(PINNED_COUNTERS, before)] == pinned_deltas, sql


# distinct generated plan sources the DS1-SMALL τPSM suite compiles
SOURCES = {"MAX": 18, "PERST": 25}


@pytest.mark.parametrize(
    "strategy, count", list(SOURCES.items()), ids=[f"{s}-{n}-sources" for s, n in SOURCES.items()]
)
def test_one_source_per_plan_shape(strategy, count, monkeypatch):
    """Over the τPSM suite, run twice (the second time with every plan
    and transformation rebuilt), each distinct plan text is compiled
    once, and plans whose text is the same share its code object."""
    from repro.sqlengine import planner
    from repro.taubench import ALL_QUERIES, build_dataset
    from repro.temporal import SlicingStrategy

    compiled = []
    compile_text = planner._code.__wrapped__
    monkeypatch.setattr(planner, "_code", functools.lru_cache(maxsize=None)(
        lambda text, filename: compiled.append(text) or compile_text(text, filename)
    ))
    dataset = build_dataset("DS1", "SMALL")
    stratum = dataset.stratum
    queries = [q for q in ALL_QUERIES if strategy == "MAX" or q.perst_applicable]
    for _ in range(2):
        stratum._transform_cache.clear()
        stratum.db.plan_cache.clear()
        for query in queries:
            query.install(dataset)
            stratum.execute(
                query.sequenced_sql(dataset, "2010-01-01", "2011-01-01"),
                SlicingStrategy[strategy],
            )
    assert len(compiled) == len(set(compiled)) == count
    functions = [
        pipeline.function
        for _, plan in stratum.db.plan_cache.values() if hasattr(plan, "pipeline")
        for pipeline in (plan.pipeline, *plan.variants.values()) if pipeline.function
    ]
    assert len({function.__code__ for function in functions}) <= count < len(functions)

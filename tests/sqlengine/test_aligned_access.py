"""The planner's aligned access on conventional statements.

A base-table level whose WHERE stabs a declared date pair at one column
of the first FROM table (``t.b <= o.c AND o.c < t.e``) is aligned onto
that column's sorted values, once per execution (``planner._Alignment``):
the constant-period table is only its most frequent first level.  Here
the first table's column is unsorted and holds duplicates and NULLs, the
periods hold NULL, empty and shared bounds, and every consumer of the
plan — projection, DISTINCT, ORDER BY, the grouped fold, a star, a
residual that reads the first level — must receive the reference
executor's rows in its order.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.planner import build_select_plan
from repro.sqlengine.values import Date, Null

from tests.reference_executor import installed

BASE = Date.from_iso("2010-01-01").ordinal
STAB_T = "t.b <= o.c AND o.c < t.e"
STAB_U = "u.b <= o.c AND o.c < u.e"
QUERIES = {
    "projection": f"SELECT o.tag, t.id, o.c FROM o, t WHERE {STAB_T}",
    "flipped_stab": "SELECT t.id, o.tag FROM o, t WHERE o.c >= t.b AND t.e > o.c",
    "keyed": (
        f"SELECT t.id, u.w, o.tag FROM o, t, u WHERE {STAB_T} AND {STAB_U}"
        " AND t.id = u.id AND t.v > 1"
    ),
    "keyless": f"SELECT t.id, u.id FROM o, t, u WHERE {STAB_T} AND {STAB_U} AND t.v < u.w",
    "non_temporal": f"SELECT o.tag, l.name FROM o, t, l WHERE {STAB_T} AND l.id = t.id",
    "first_level_filter": f"SELECT t.id, o.tag FROM o, t WHERE o.tag > 1 AND {STAB_T}",
    "residual_reads_first": f"SELECT t.id, o.tag FROM o, t WHERE {STAB_T} AND o.tag + t.v > 2",
    "residual": f"SELECT t.id, o.tag FROM o, t WHERE {STAB_T} AND t.v + 0 > 1",
    "item_reads_first": f"SELECT t.id, o.tag * 10 + t.v AS x FROM o, t WHERE {STAB_T}",
    "distinct": f"SELECT DISTINCT t.v FROM o, t WHERE {STAB_T}",
    "distinct_with_first": f"SELECT DISTINCT t.v, o.c FROM o, t WHERE {STAB_T}",
    "ordered": f"SELECT t.id, o.tag FROM o, t WHERE {STAB_T} ORDER BY t.v + o.tag, t.id",
    "ordered_by_output": f"SELECT t.id, o.tag FROM o, t WHERE {STAB_T} ORDER BY 2 DESC",
    "grouped": f"SELECT o.tag, COUNT(*), SUM(t.v) FROM o, t WHERE {STAB_T} GROUP BY o.tag",
    "aggregate": f"SELECT COUNT(*), MIN(t.id) FROM o, t WHERE {STAB_T}",
    "star": f"SELECT * FROM o, t WHERE {STAB_T}",
}
DAYS = st.sampled_from([Null, 0, 1, 2, 3, 5, 8])
INTS = st.integers(0, 3)
outer_rows = st.lists(st.tuples(DAYS, INTS), max_size=8)
period_rows = st.lists(st.tuples(INTS, INTS, DAYS, DAYS), max_size=8)


def day(offset):
    return offset if offset is Null else Date(BASE + offset)


def build(outer, t_rows, u_rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE o (c DATE, tag INTEGER)")
    db.execute("CREATE TABLE l (id INTEGER, name VARCHAR(4))")
    db.insert_rows("o", [[day(c), tag] for c, tag in outer])
    db.insert_rows("l", [[0, "zero"], [1, "one"], [1, "uno"], [3, "tres"]])
    for name, column, rows in (("t", "v", t_rows), ("u", "w", u_rows)):
        db.execute(f"CREATE TABLE {name} (id INTEGER, {column} INTEGER, b DATE, e DATE)")
        db.catalog.get_table(name).declare_interval("b", "e")
        db.insert_rows(name, [[i, x, day(b), day(e)] for i, x, b, e in rows])
    return db


def agree(db, sql) -> list:
    """The engine's rows, after checking the plan aligns and the
    reference executor's nested loop returns the same rows in order."""
    assert build_select_plan(db.executor, parse_statement(sql)).pipeline.alignment is not None
    aligned = db.obs.value("engine.join.aligned")
    rows = db.query(sql).rows
    assert db.obs.value("engine.join.aligned") == aligned + 1
    with installed(db):
        assert db.query(sql).rows == rows, sql
    return rows


# unsorted, with duplicates and NULLs in the column aligned on
OUTER = [(5, 0), (1, 1), (Null, 2), (3, 3), (1, 2), (0, 1), (Null, 0), (5, 3), (2, 1)]
T = [
    (0, 1, 0, 4), (1, 2, 1, 2), (2, 3, Null, 5), (3, 0, 2, Null), (1, 3, 3, 3),
    (2, 1, 0, 8), (0, 2, 5, 1), (3, 3, 2, 6),
]
U = [(1, 2, 0, 8), (2, 0, 1, 4), (1, 1, 3, 6), (0, 3, Null, 2), (3, 1, 0, 2)]


@pytest.mark.parametrize("name", list(QUERIES))
def test_unsorted_outer_with_duplicates_and_nulls(name):
    db = build(OUTER, T, U)
    rows = agree(db, QUERIES[name])
    if name == "projection":
        # every non-NULL outer row meets the versions alive at its value,
        # in the outer table's order
        assert [row[0] for row in rows][:3] == [0, 0, 1]
        assert len(rows) == 2 + 3 + 3 + 3 + 2 + 2 + 3


@pytest.mark.parametrize("name", list(QUERIES))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(outer=outer_rows, t_rows=period_rows, u_rows=period_rows)
def test_random_tables_equal_the_reference(name, outer, t_rows, u_rows):
    agree(build(outer, t_rows, u_rows), QUERIES[name])


def test_shapes_that_keep_the_nested_loop():
    """Another total conjunct relating the first level to a later one, a
    half stab, or a stab at a later level's column keeps the nested loop."""
    db = build(OUTER, T, U)
    for sql in (
        f"SELECT t.id FROM o, t WHERE {STAB_T} AND t.v = o.tag",
        "SELECT t.id FROM o, t WHERE t.b <= o.c",
        "SELECT u.id FROM o, t, u WHERE u.b <= t.b AND t.b < u.e",
    ):
        plan = build_select_plan(db.executor, parse_statement(sql))
        assert plan.pipeline.alignment is None, sql
        rows = db.query(sql).rows
        with installed(db):
            assert db.query(sql).rows == rows


def test_a_literal_key_keeps_the_nested_loop():
    """A later level but the first stabbed one with a total equality to a
    literal of its class is better served by a hash probe: the nested
    loop starts at it (its bucket, then the rest by key) instead of
    aligning every version of the stabbed level.  A literal of another
    class is demoted at every execution, so the plan stays aligned."""
    db = build(OUTER, T, U)
    sql = f"SELECT t.id, u.w FROM o, t, u WHERE {STAB_T} AND {STAB_U} AND t.id = u.id AND u.w = 2"
    plan = build_select_plan(db.executor, parse_statement(sql))
    assert plan.pipeline.alignment is None
    assert [(level.node.key, level.access[0]) for level in plan.pipeline.levels] == [
        ("u", "HashProbe"), ("t", "HashProbe"), ("o", "Scan"),
    ]
    rows = db.query(sql).rows
    assert rows
    with installed(db):
        assert db.query(sql).rows == rows
    # the first stabbed level's literal and a wrong-class literal align
    agree(db, f"SELECT t.id, u.w FROM o, t, u WHERE {STAB_T} AND {STAB_U} AND t.id = u.id AND t.v = 1")
    wrong_class = f"SELECT t.id FROM o, t, u WHERE {STAB_T} AND {STAB_U} AND t.id = u.id AND u.w = 'x'"
    assert build_select_plan(db.executor, parse_statement(wrong_class)).pipeline.alignment

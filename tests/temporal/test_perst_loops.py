"""PERST's per-period loops: correct or refused, never a wrong bag.

A statement outside PERST's algebraic fragment is evaluated point-wise
inside a loop over constant periods: the per-statement loop (§VI-C) for
one statement, cursor-body mode (§VII-C) for a whole body.  Six routine
shapes on the bookstore, and q17b with its FETCH nested in the loop,
were answered wrongly there: a RETURN that left the table function with
a scalar, stale rows a fallback did not delete, a per-period loop run
twice by an enclosing WHILE, a procedure result set per period, a LEAVE
that ended the loop over the periods at the first one.  Each case now
either equals the timeslice oracle (``tests/oracle``) snapshot by
snapshot, multiplicities included, or PERST refuses it with
:class:`PerStatementInapplicableError`; MAX and AUTO equal the oracle.

A loop runs once per run of constant periods in which nothing its body
reads changes (:class:`repro.sqlengine.ast_nodes.PeriodSplit`).  The
periods each τPSM loop runs on DS1-SMALL are pinned, as are the reasons
a loop keeps every period, and a cursor whose ORDER BY ties would take
another order if its loop merged across a replaced row.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sqlengine import ast_nodes as ast
from repro.taubench import build_dataset, get_query
from repro.taubench.queries import _Q17B_FN
from repro.temporal import SlicingStrategy

from repro.temporal.perst_slicing import UNMERGED_REASONS

from tests.conftest import make_bookstore
from tests.oracle import Expected, check
from tests.oracle.test_corpus import BASE, FAMILIES, build_stratum, sequenced

MAX, PERST, AUTO = SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO
QUERY = (
    "VALIDTIME [DATE '2010-01-01', DATE '2010-10-01']"
    " SELECT a.author_id, f(a.author_id) FROM author a"
)
FIRST_NAME_IS_BEN = "(SELECT first_name FROM author WHERE author_id = aid) = 'Ben'"

SHAPES = {
    # an early RETURN under the per-statement loop of a temporal IF
    "A-early-return": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          IF {FIRST_NAME_IS_BEN} THEN
            RETURN 'short';
          END IF;
          RETURN 'long';
        END""",
    # a variable assigned before the fallback IF assigns it again
    "B-assigned-twice": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE r CHAR(10);
          SET r = 'none';
          IF {FIRST_NAME_IS_BEN} THEN
            SET r = 'short';
          ELSE
            SET r = 'long';
          END IF;
          RETURN r;
        END""",
    # the fallback IF inside a loop body runs its period loop twice
    "C-inside-while": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE r CHAR(10);
          DECLARE i INTEGER DEFAULT 0;
          WHILE i < 2 DO
            IF {FIRST_NAME_IS_BEN} THEN
              SET r = 'short';
            ELSE
              SET r = 'long';
            END IF;
            SET i = i + 1;
          END WHILE;
          RETURN r;
        END""",
    # a procedure's result set under the per-statement loop
    "D-result-select": f"""
        CREATE PROCEDURE f (aid CHAR(10))
        LANGUAGE SQL
        BEGIN
          IF {FIRST_NAME_IS_BEN} THEN
            SELECT i.title FROM item i, item_author ia
            WHERE i.id = ia.item_id AND ia.author_id = aid;
          END IF;
        END""",
    # an aggregate SELECT INTO two targets falls back
    "E-select-into-two-targets": """
        CREATE FUNCTION f (aid CHAR(10)) RETURNS FLOAT
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE n INTEGER;
          DECLARE p FLOAT;
          SET p = 0.0;
          SELECT COUNT(*), MAX(i.price) INTO n, p
          FROM item i, item_author ia
          WHERE i.id = ia.item_id AND ia.author_id = aid;
          RETURN p;
        END""",
    # a LEAVE under the per-statement loop of a temporal IF that names
    # the enclosing LOOP: it would end the loop over the periods
    "F-leave-enclosing-loop": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS INTEGER
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE n INTEGER DEFAULT 0;
          l1: LOOP
            IF {FIRST_NAME_IS_BEN} THEN
              LEAVE l1;
            END IF;
            SET n = 1;
            LEAVE l1;
          END LOOP;
          RETURN n;
        END""",
}


def _bookstore(shape):
    stratum = make_bookstore()
    stratum.register_routine(SHAPES[shape])
    sql = QUERY if shape[0] != "D" else (
        "VALIDTIME [DATE '2010-01-01', DATE '2010-10-01'] CALL f('a1')"
    )
    return stratum, sql


def _nested_q17b():
    dataset = build_dataset("DS1", "SMALL")
    q17b = get_query("q17b")
    q17b.install(dataset)
    dataset.stratum.db.catalog.drop_routine("canadian_small_books")
    dataset.stratum.register_routine(nested_fetch(_Q17B_FN))
    # three weeks: four constant periods, each with a row (the reference
    # walks q17b's cursor loop in about a second a period)
    return dataset.stratum, q17b.sequenced_sql(dataset, *dataset.context_bounds(21))


def nested_fetch(definition: str) -> str:
    """q17b's body with its one FETCH opening the WHILE body."""
    nested = definition.replace(
        "  FETCH all_items_cur INTO iid;\n  w1:", "  w1:"
    ).replace(
        "    IF has_canadian_author(iid) = 1 AND",
        "    FETCH all_items_cur INTO iid;\n"
        "    IF done = 0 AND has_canadian_author(iid) = 1 AND",
    ).replace("    FETCH all_items_cur INTO iid;\n  END WHILE", "  END WHILE")
    assert nested.count("FETCH") == 1
    return nested


CASES = {shape: (lambda shape=shape: _bookstore(shape)) for shape in SHAPES}
CASES["q17b-nested-fetch"] = _nested_q17b


@pytest.mark.parametrize("case", CASES)
def test_perst_equals_max_or_refuses(case):
    """PERST ≡ the snapshot (the oracle), or a typed refusal; MAX and AUTO
    ≡ the snapshot.  The shapes only show over several constant periods
    with rows in them: a loop over the periods run twice, or left at the
    first one."""
    stratum, sql = CASES[case]()
    expected = Expected(stratum, sql)
    answers = list(expected.answers.values())
    assert not expected.errors and len(answers) >= 3 and any(answers[1:]), case
    verdicts = check(stratum, sql, (MAX, PERST, AUTO), expected)
    assert verdicts[MAX] == verdicts[AUTO] == "agrees", case


# ---------------------------------------------------------------------------
# the periods a loop runs: merged where nothing its body reads changes
# ---------------------------------------------------------------------------

# DS1-SMALL, 365 days: (constant periods, periods PERST's loops ran) per
# execution.  Before loops merged, each ran every constant period.
LOOP_PERIODS = {
    "q6": (53, 6), "q7": (53, 9), "q7b": (53, 25),
    "q10": (53, 6), "q14": (53, 9), "q17": (53, 13),
}
UNMERGED = "stratum.perst.loop.unmerged."


@pytest.mark.parametrize("name", sorted(LOOP_PERIODS))
def test_loop_periods_per_query(small_dataset, name):
    """Each τPSM loop merges (no ``stratum.perst.loop.unmerged.*``
    moves) and runs the pinned periods; the results stay the oracle's
    (``test_equivalence``, ``test_reference_differential``)."""
    query = get_query(name)
    query.install(small_dataset)
    stratum = small_dataset.stratum
    obs = stratum.db.obs
    before = (
        obs.value("stratum.slices"), obs.value("stratum.perst.loop.periods"),
        obs.sum_prefix(UNMERGED),
    )
    stratum.execute(
        query.sequenced_sql(small_dataset, *small_dataset.context_bounds(365)), PERST
    )
    moved = (
        obs.value("stratum.slices") - before[0],
        obs.value("stratum.perst.loop.periods") - before[1],
    )
    assert moved == LOOP_PERIODS[name]
    assert obs.sum_prefix(UNMERGED) == before[2]


# two entities over [2010-01-01, 2010-03-02): e1's value is 2 over
# [01-01, 02-10) in two versions, then 0; e2's is 1 over [01-11, 02-10).
# The constant periods of fact and dim: four
FACT = [(1, 2, 0, 20, 9), (1, 2, 20, 20, 9), (1, 0, 40, 20, 9), (2, 1, 10, 30, 9)]
DIM = [(1, 1, 0, 60, 9), (2, 1, 0, 60, 9)]


@pytest.mark.parametrize("family,periods,unmerged", [
    # the aggregate SET loop reads fact (4 periods a call) and stamps a
    # row of v per period, so the IF loop splits where each begins
    ("loop-variable", 2 * 4 + 2 * 4, {"base_read": 2}),
    # v's rows: e1's three fact versions
    ("loop-variable-gap", 3, {}),
    # the cursor's join rows: e1's three fact versions, e2's one
    ("loop-cursor-ties", 3 + 3, {}),
    ("loop-base-read", 2 * 4, {"base_read": 2}),
    # the IF loop also writes a row per period into a table of its own
    ("loop-effect", 2 * 4 + 2 * 4, {"base_read": 2, "effect": 2}),
])
def test_loops_merge_only_where_nothing_read_changes(family, periods, unmerged):
    """A loop whose body reads a base table at the point, or writes
    anything but a stamped row or a variable it declares, runs every
    constant period and says why; the others merge.  Each answer is the
    oracle's under every strategy."""
    sql = sequenced(FAMILIES[family])
    stratum = build_stratum(FACT, DIM)
    obs = stratum.db.obs
    stratum.execute(sql, PERST)
    assert obs.value("stratum.perst.loop.periods") == periods
    assert {
        reason: obs.value(UNMERGED + reason) for reason in UNMERGED_REASONS
        if obs.value(UNMERGED + reason)
    } == unmerged
    assert set(check(stratum, sql, (MAX, PERST, AUTO)).values()) == {"agrees"}


# the loop body of a function ``f(eid)`` on the corpus schema, and why
# its loop keeps every constant period
KEEPS_EVERY_PERIOD = {
    "base_read": "IF (SELECT COUNT(*) FROM fact WHERE entity = eid) > 1 THEN"
    " SET r = 1; ELSE SET r = 0; END IF;",
    "ps_call": "IF value_of(eid) > 1 THEN SET r = 1; ELSE SET r = 0; END IF;",
    "effect": "CREATE TEMPORARY TABLE seen (n INTEGER);"
    " SET v = (SELECT val FROM fact WHERE entity = eid);"
    " IF v > 1 THEN SET r = 1; INSERT INTO seen VALUES (1); ELSE SET r = 0;"
    " END IF; DROP TABLE seen;",
    # DISTINCT has no sequenced form in PERST's algebraic fragment
    "seq_refused": "DECLARE c CURSOR FOR SELECT DISTINCT val FROM fact"
    " WHERE entity = eid; OPEN c; FETCH c INTO r; CLOSE c;",
}
# a cursor's query reads ``fact`` somewhere its sequenced bounds would not
# see, or calls a temporal routine; and statements that are neither
# reads, control flow nor stamped writes
CURSOR = "DECLARE c CURSOR FOR {}; OPEN c; FETCH c INTO r; CLOSE c;"
ALSO_KEEPS_EVERY_PERIOD = [
    ("seq_refused", CURSOR.format(
        "SELECT (SELECT f.val FROM fact f WHERE f.entity = d.entity)"
        " FROM dim d WHERE d.entity = eid"
    )),
    ("seq_refused", CURSOR.format(
        "SELECT d.weight FROM dim d WHERE d.entity = eid"
        " ORDER BY (SELECT MAX(f.val) FROM fact f WHERE f.entity = d.entity)"
    )),
    ("seq_refused", CURSOR.format(
        "SELECT x.val FROM (SELECT val FROM fact WHERE entity = eid) x"
    )),
    ("seq_refused", CURSOR.format(
        "SELECT d.weight FROM dim d WHERE EXISTS"
        " (SELECT * FROM fact f WHERE f.entity = d.entity)"
    )),
    ("ps_call", CURSOR.format("SELECT value_of(d.entity) FROM dim d")),
    ("effect", "SET v = (SELECT val FROM fact WHERE entity = eid);"
     " IF v > 1 THEN SET r = 1; CREATE VIEW w AS SELECT val FROM label;"
     " DROP VIEW w; ELSE SET r = 0; END IF;"),
    ("effect", "SET v = (SELECT val FROM fact WHERE entity = eid);"
     " IF v > 1 THEN SET r = 1; COMMIT; ELSE SET r = 0; END IF;"),
]


def _loop_of_f(stratum, body: str, sql: str) -> ast.ForStatement:
    stratum.register_routine(
        "CREATE FUNCTION f (eid CHAR(4)) RETURNS INTEGER READS SQL DATA"
        " LANGUAGE SQL BEGIN DECLARE v INTEGER; DECLARE r INTEGER;"
        f" {body} RETURN r; END"
    )
    found = stratum.prepare(stratum.parse(sql), PERST).candidate
    (loop,) = [
        node for clone in found.clones if clone.name == "ps_f"
        for node in ast.walk(clone.definition)
        if isinstance(node, ast.ForStatement) and node.split is not None
    ]
    return loop


@pytest.mark.parametrize("reason", UNMERGED_REASONS)
def test_why_a_loop_keeps_every_period(reason):
    """Every reason a loop does not merge, as the transformation records
    it (``EXPLAIN`` prints it) and the registry counts it."""
    stratum = build_stratum(FACT, DIM)
    sql = sequenced("SELECT f('e1') AS r")
    loop = _loop_of_f(stratum, KEEPS_EVERY_PERIOD[reason], sql)
    assert loop.split.unmerged == reason
    stratum.execute(sql, PERST)
    assert stratum.db.obs.value(UNMERGED + reason) >= 1
    assert set(check(stratum, sql, (MAX, PERST)).values()) == {"agrees"}


@pytest.mark.parametrize(
    "reason,body", ALSO_KEEPS_EVERY_PERIOD,
    ids=[f"{reason}-{i}" for i, (reason, _) in enumerate(ALSO_KEEPS_EVERY_PERIOD)],
)
def test_what_a_cursor_or_statement_hides_keeps_every_period(reason, body):
    """A temporal read the cursor's sequenced bounds do not see (a
    subquery in its items, ORDER BY or WHERE, a derived table), a
    temporal routine in its query, or a statement that is not known to
    act on the body alone (DDL, transaction control) keeps every
    period."""
    stratum = build_stratum(FACT, DIM)
    sql = sequenced("SELECT f('e1') AS r")
    assert _loop_of_f(stratum, body, sql).split.unmerged == reason
    if reason != "effect":
        assert set(check(stratum, sql, (MAX, PERST)).values()) == {"agrees"}


def test_a_cursor_calling_a_routine_runs_it_at_its_rows_points_only():
    """``fact`` holds two versions of e1 over [01-01, 01-02), so
    ``gap_band_of('e1')`` raises there, where no ``dim`` row of e1 is
    alive; the cursor's query calls it for ``dim``'s rows.  Its loop
    keeps every period (``ps_call``) and calls the routine at a row's
    points only, as every snapshot does: no sequenced bounds query runs
    it over the whole context."""
    stratum = build_stratum([(1, 2, 0, 1, 9), (1, 2, 0, 1, 9)], [(1, 1, 1, 59, 9)])
    stratum.register_routine(
        "CREATE FUNCTION f (eid CHAR(4)) RETURNS CHAR(4) READS SQL DATA"
        " LANGUAGE SQL BEGIN DECLARE r CHAR(4);"
        " DECLARE c CURSOR FOR SELECT gap_band_of(d.entity) FROM dim d"
        " WHERE d.entity = eid; OPEN c; FETCH c INTO r; CLOSE c; RETURN r; END"
    )
    sql = sequenced("SELECT f('e1') AS r")
    stratum.execute(sql, PERST)
    assert stratum.db.obs.value(UNMERGED + "ps_call") >= 1
    assert set(check(stratum, sql, (MAX, PERST, AUTO)).values()) == {"agrees"}


@given(
    shape=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=8),
    bounds=st.sets(st.integers(0, 50)),
)
def test_merge_joins_periods_only_across_points_no_row_bounds(shape, bounds):
    """Point by point: a granule shares its merged period with the one
    before it exactly when both are covered and it is no split row's
    bound or begins no input period."""
    periods, at = [], 0
    for gap, length in shape:
        periods.append((at + gap, at + gap + length))
        at += gap + length
    merged = ast.PeriodSplit.merge(periods[::-1], [[(p,) for p in bounds]])

    def owner(point):
        (found,) = [i for i, (b, e) in enumerate(merged) if b <= point < e] or [None]
        return found

    begins = {b for b, _ in periods}
    for point in range(at + 1):
        covered = any(b <= point < e for b, e in periods)
        assert (owner(point) is not None) == covered
        if covered and point and owner(point - 1) is not None:
            joined = point not in begins or point not in bounds
            assert (owner(point) == owner(point - 1)) == joined


def test_a_cursor_splits_where_a_tied_row_is_replaced():
    """``dim`` holds e1's t2 over [01-01, 01-31), t1 over the context and
    t2 again from 01-31, stored in that order.  ``first_tag``'s cursor
    rows tie on ``f.val``, so its first row is the first stored: t2, then
    t1 from 01-31, though the bag of tags never changes.  The cursor's
    loop splits where a version of its rows begins or ends, not only
    where their values change."""
    stratum = build_stratum([(1, 1, 0, 60, 9)], [
        (1, 2, 0, 30, 9), (1, 1, 0, 60, 9), (1, 2, 30, 30, 9),
    ])
    sql = sequenced(FAMILIES["loop-cursor-ties"])
    rows = stratum.execute(sql, PERST).coalesced()
    assert sorted((period.begin - BASE, values[1]) for values, period in rows) == [
        (0, "t2"), (30, "t1"),
    ]
    assert stratum.db.obs.value("stratum.perst.loop.periods") == 2
    assert set(check(stratum, sql, (MAX, PERST, AUTO)).values()) == {"agrees"}

"""One corpus: every statement family × strategy × configuration ≡ the oracle.

One hypothesis generator makes histories of ``fact`` and ``dim`` (valid
time) beside a conventional ``label``: few keys and values, so duplicate
rows and duplicate periods are the norm, and periods that are NULL at
either bound, run forever, meet the previous version's end, or are
empty or inverted.  Every family below runs on such a history under
MAX, PERST, SEQ-SET and AUTO in three configurations:

* ``session`` — the history in one session;
* ``mvcc`` — a second session reads it while the root session holds an
  uncommitted write to a table the statement reads;
* ``wal`` — the history reopened from its write-ahead log.

Each cell must equal the timeslice oracle (``tests/oracle``), or refuse
with the typed refusal :data:`REFUSED` expects of it.  The aggregate /
GROUP BY / HAVING family under MAX, SEQ-SET and AUTO is a strict xfail
(ROADMAP item 1): MAX's constant-period join aggregates across periods,
and an empty snapshot's ``COUNT(*)`` has no row.  Two PERST defects are
strict xfails on fixed histories (ROADMAP item 18).
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date, Null
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.period import Period

from tests.oracle import check

MAX, PERST = SlicingStrategy.MAX, SlicingStrategy.PERST
SEQSET, AUTO = SlicingStrategy.SEQSET, SlicingStrategy.AUTO
EVERY = (MAX, PERST, SEQSET, AUTO)

BASE = Date.from_ymd(2010, 1, 1).ordinal
SPAN = 60  # days of history
CONTEXT = Period(BASE, BASE + SPAN)
BOUNDS = f"[DATE '{Date(CONTEXT.begin).to_iso()}', DATE '{Date(CONTEXT.end).to_iso()}']"
FOREVER = Date(Date.MAX_ORDINAL)

# a version: (key 0..3 — 3 is a NULL key, value 0..3, begin offset,
# length, shape).  Length ≤ 0 makes an empty or inverted period; shape
# 0 / 1 puts NULL at the begin / end, 2 runs forever, 3 begins where the
# previous version ended, anything else is the plain period.
version = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=SPAN - 1),
    st.integers(min_value=-2, max_value=SPAN),
    st.integers(min_value=0, max_value=11),
)
# a history: versions, the first few repeated verbatim (duplicates)
versions = st.tuples(
    st.lists(version, min_size=1, max_size=8), st.integers(min_value=0, max_value=2)
).map(lambda drawn: drawn[0] + drawn[0][: drawn[1]])

VALUE_OF = """
CREATE FUNCTION value_of (eid CHAR(4))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE v INTEGER;
  SET v = (SELECT MAX(val) FROM fact WHERE entity = eid);
  RETURN v;
END
"""
TAGS_OF = """
CREATE FUNCTION tags_of (eid CHAR(4))
RETURNS ROW(tag CHAR(4), weight FLOAT) ARRAY
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE result ROW(tag CHAR(4), weight FLOAT) ARRAY;
  INSERT INTO TABLE result (SELECT tag, weight FROM dim WHERE entity = eid);
  RETURN result;
END
"""
TAGS = """
CREATE PROCEDURE tags (eid CHAR(4))
LANGUAGE SQL
BEGIN
  SELECT d.tag, f.val FROM dim d, fact f
  WHERE d.entity = eid AND f.entity = eid;
END
"""
EACH_TAGS = """
CREATE PROCEDURE each_tags ()
LANGUAGE SQL
BEGIN
  FOR r AS SELECT entity FROM fact WHERE val > 1 DO
    CALL tags(r.entity);
  END FOR;
END
"""
TOPS = """
CREATE FUNCTION tops (eid CHAR(4))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE n INTEGER;
  CREATE TEMPORARY TABLE top_vals (v INTEGER);
  INSERT INTO top_vals SELECT MAX(val) FROM fact WHERE entity = eid;
  SET n = (SELECT COUNT(*) FROM top_vals WHERE v > 1);
  DROP TABLE top_vals;
  RETURN n;
END
"""
# PERST's per-period loops: each body below runs point-wise over the
# constant periods, merged where nothing it reads changes.  The IF reads
# a variable set from an aggregate (its table has a row, NULL or not, in
# every period) or from a plain subquery (no row where ``eid`` has no
# fact: the ELSE branch runs over NULL)
BAND_OF = """
CREATE FUNCTION band_of (eid CHAR(4))
RETURNS CHAR(4)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE v INTEGER;
  DECLARE b CHAR(4);
  SET v = (SELECT MAX(val) FROM fact WHERE entity = eid);
  IF v > 1 THEN
    SET b = 'high';
  ELSE
    SET b = 'low';
  END IF;
  RETURN b;
END
"""
GAP_BAND_OF = BAND_OF.replace("band_of", "gap_band_of").replace(
    "SELECT MAX(val) FROM fact", "SELECT val FROM fact"
)
# a cursor over a join whose ORDER BY ties: which tag comes first is the
# order the rows are read in
FIRST_TAG = """
CREATE FUNCTION first_tag (eid CHAR(4))
RETURNS CHAR(4)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE t CHAR(4);
  DECLARE done INTEGER DEFAULT 0;
  DECLARE c CURSOR FOR
    SELECT d.tag FROM fact f, dim d
    WHERE f.entity = d.entity AND f.entity = eid
    ORDER BY f.val;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN c;
  FETCH c INTO t;
  CLOSE c;
  IF done = 1 THEN
    SET t = 'none';
  END IF;
  RETURN t;
END
"""
# the IF reads ``fact`` at the point: every constant period runs
MANY_OF = """
CREATE FUNCTION many_of (eid CHAR(4))
RETURNS CHAR(4)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE b CHAR(4);
  IF (SELECT COUNT(*) FROM fact WHERE entity = eid) > 1 THEN
    SET b = 'many';
  ELSE
    SET b = 'few';
  END IF;
  RETURN b;
END
"""
# the IF also writes a row per period it runs in, a counter over periods
# the result never reads: every constant period runs
COUNTED_BAND_OF = """
CREATE FUNCTION counted_band_of (eid CHAR(4))
RETURNS CHAR(4)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE v INTEGER;
  DECLARE b CHAR(4);
  CREATE TEMPORARY TABLE seen (n INTEGER);
  SET v = (SELECT MAX(val) FROM fact WHERE entity = eid);
  IF v > 1 THEN
    SET b = 'high';
    INSERT INTO seen VALUES (1);
  ELSE
    SET b = 'low';
  END IF;
  DROP TABLE seen;
  RETURN b;
END
"""
# cursors that read ``fact`` through a subquery, in the select list or
# in the ORDER BY: their rows change where ``fact`` does, though
# their FROM holds ``dim`` alone
FIRST_VAL = """
CREATE FUNCTION first_val (eid CHAR(4))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE v INTEGER;
  DECLARE c CURSOR FOR
    SELECT CASE WHEN EXISTS (SELECT * FROM fact f
      WHERE f.entity = d.entity AND f.val > 1) THEN 1 ELSE 0 END
    FROM dim d WHERE d.entity = eid;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET v = -1;
  OPEN c;
  FETCH c INTO v;
  CLOSE c;
  RETURN v;
END
"""
TOP_ENTITY = """
CREATE FUNCTION top_entity (eid CHAR(4))
RETURNS CHAR(8)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE e CHAR(8);
  DECLARE c CURSOR FOR
    SELECT d.entity FROM dim d WHERE d.entity IS NOT NULL
    ORDER BY (SELECT MAX(f.val) FROM fact f WHERE f.entity = d.entity) DESC,
      d.entity;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET e = eid;
  OPEN c;
  FETCH c INTO e;
  CLOSE c;
  RETURN e;
END
"""
# parsed once: a stored definition is never mutated
ROUTINES = [
    parse_statement(sql)
    for sql in (
        VALUE_OF, TAGS_OF, TAGS, EACH_TAGS, TOPS,
        BAND_OF, GAP_BAND_OF, FIRST_TAG, MANY_OF, COUNTED_BAND_OF,
        FIRST_VAL, TOP_ENTITY,
    )
]
LABELS = [[0, "zero"], [1, "one"], [1, "uno"], [Null, "none"]]


def _period(start: int, length: int, shape: int, previous_end):
    begin, end = Date(BASE + start), Date(BASE + start + length)
    if shape == 0:
        return Null, end
    if shape == 1:
        return begin, Null
    if shape == 2:
        return begin, FOREVER
    if shape == 3 and isinstance(previous_end, Date):
        return previous_end, Date(previous_end.ordinal + length)
    return begin, end


def _load(stratum: TemporalStratum, table: str, rows, head) -> None:
    previous_end = None
    for key, value, start, length, shape in rows:
        begin, end = _period(start, length, shape, previous_end)
        previous_end = end
        stratum.db.insert_rows(table, [head(key, value) + [begin, end]])


def build_stratum(fact_rows, dim_rows, stratum=None) -> TemporalStratum:
    """The corpus schema with ``fact`` / ``dim`` histories: ``fact`` ⋈
    ``dim`` on a CHAR key (NULLs on both sides, blank padding on one)
    and on INTEGER = FLOAT, a conventional ``label``, and the corpus
    routines."""
    stratum = stratum if stratum is not None else TemporalStratum()
    stratum.create_temporal_table(
        "CREATE TABLE fact (entity CHAR(4), val INTEGER,"
        " begin_time DATE, end_time DATE)"
    )
    stratum.create_temporal_table(
        "CREATE TABLE dim (entity CHAR(8), weight FLOAT, tag CHAR(4),"
        " begin_time DATE, end_time DATE)"
    )
    stratum.db.execute("CREATE TABLE label (val INTEGER, name CHAR(8))")
    stratum.db.insert_rows("label", [list(row) for row in LABELS])
    _load(stratum, "fact", fact_rows, lambda key, value: [
        Null if key == 3 else f"e{key}", value,
    ])
    _load(stratum, "dim", dim_rows, lambda key, value: [
        Null if key == 3 else f"e{key}   ", float(value), f"t{value}",
    ])
    for routine in ROUTINES:
        stratum.register_routine_ast(routine)
    return stratum


def sequenced(sql: str) -> str:
    return f"VALIDTIME {BOUNDS} {sql}"


FAMILIES = {
    "selection": "SELECT entity, val FROM fact WHERE val > 1",
    "join": "SELECT f.entity, f.val, d.tag FROM fact f, dim d WHERE f.entity = d.entity",
    "join-int-float": "SELECT f.entity, d.entity FROM fact f, dim d WHERE f.val = d.weight",
    "join-label": "SELECT f.entity, l.name FROM fact f, label l WHERE f.val = l.val",
    "join-keyless": "SELECT f.entity, d.tag FROM fact f, dim d WHERE f.val < d.weight",
    "join-three-way": (
        "SELECT f.entity, d.tag, g.val FROM fact f, dim d, fact g"
        " WHERE f.entity = d.entity AND d.weight = g.val"
    ),
    "left-join": "SELECT f.entity, d.tag FROM fact f LEFT JOIN dim d ON f.entity = d.entity",
    "self-join": (
        "SELECT a.entity FROM fact a, fact b WHERE a.entity = b.entity AND a.val < b.val"
    ),
    "distinct": "SELECT DISTINCT entity FROM fact",
    "distinct-join": (
        "SELECT DISTINCT f.entity, d.tag FROM fact f, dim d WHERE f.entity = d.entity"
    ),
    "aggregate": "SELECT COUNT(*), SUM(val) FROM fact",
    "group-by": "SELECT entity, COUNT(*) FROM fact GROUP BY entity",
    "having": "SELECT entity, MAX(val) FROM fact GROUP BY entity HAVING COUNT(*) > 1",
    "order-by": "SELECT entity, val FROM fact ORDER BY val, entity",
    "limit": "SELECT entity FROM fact ORDER BY entity LIMIT 1",
    "union": (
        "SELECT entity FROM fact WHERE val < 2 UNION SELECT entity FROM fact WHERE val > 1"
    ),
    "union-all": "SELECT val FROM fact UNION ALL SELECT val FROM label",
    "except": "SELECT entity FROM fact EXCEPT SELECT entity FROM fact WHERE val > 1",
    "nested-subquery": (
        "SELECT f.entity, f.val FROM fact f WHERE f.val >="
        " (SELECT MAX(g.val) FROM fact g WHERE g.entity = f.entity)"
    ),
    "in-subquery": (
        "SELECT entity FROM fact WHERE entity IN (SELECT entity FROM dim WHERE tag = 't1')"
    ),
    "scalar-function": "SELECT d.entity, value_of(d.entity) AS v FROM dim d WHERE d.tag = 't1'",
    "table-function": "SELECT t.tag, t.weight FROM TABLE(tags_of('e1')) AS t",
    "call": "CALL tags('e1')",
    "call-in-cursor": "CALL each_tags()",
    "insert-select-in-routine": "SELECT f.entity, tops(f.entity) AS n FROM fact f",
    "loop-variable": "SELECT d.entity, band_of(d.entity) AS b FROM dim d",
    "loop-variable-gap": "SELECT gap_band_of('e1') AS b",
    "loop-cursor-ties": "SELECT d.entity, first_tag(d.entity) AS t FROM dim d",
    "loop-cursor-subquery": "SELECT d.entity, first_val(d.entity) AS v FROM dim d",
    "loop-cursor-order-subquery": "SELECT top_entity('none') AS e",
    "loop-base-read": "SELECT d.entity, many_of(d.entity) AS b FROM dim d",
    "loop-effect": "SELECT d.entity, counted_band_of(d.entity) AS b FROM dim d",
    "insert": "INSERT INTO fact (entity, val) SELECT name, val FROM label WHERE val > 0",
    "update": "UPDATE fact SET val = val + 1 WHERE val IN (SELECT val FROM label)",
    "delete": "DELETE FROM fact WHERE entity IN (SELECT name FROM label) OR val > 2",
}
# the typed refusals the corpus expects; every other cell agrees.  PERST
# refuses what lies outside its algebraic fragment (AUTO then takes
# SEQ-SET or MAX), and every strategy refuses a top-level LIMIT
PERST_REFUSES = {
    "left-join", "distinct", "distinct-join", "aggregate", "group-by", "having",
    "union", "union-all", "except", "nested-subquery", "in-subquery",
    "insert-select-in-routine",
}
REFUSED = {(family, PERST) for family in PERST_REFUSES} | {
    ("limit", strategy) for strategy in EVERY
}


def verdicts(family: str, strategies) -> dict:
    """What :func:`check` must return for ``family`` under ``strategies``."""
    return {
        strategy: "refused" if (family, strategy) in REFUSED else "agrees"
        for strategy in strategies
    }


# ROADMAP item 1: MAX's constant-period join puts every period's rows into
# one aggregate and one group, and an empty snapshot's COUNT(*) gets no
# row; SEQ-SET and AUTO send these shapes to MAX.  The fix changes the
# end-to-end benchmark's agg_365d / grp_365d fingerprints, so it lands
# with them.
KNOWN_WRONG = {"aggregate", "group-by", "having"}
KNOWN_WRONG_REASON = (
    "ROADMAP item 1: MAX aggregates and groups across constant periods"
    " and gives an empty snapshot's COUNT(*) no row"
)

# the root session's uncommitted write in the ``mvcc`` cell, per table
DIRTY = {
    "fact": "INSERT INTO fact VALUES ('e1', 2, DATE '2010-01-05', DATE '9999-12-31')",
    "dim": "INSERT INTO dim VALUES ('e1', 2.0, 't1', DATE '2010-01-05', DATE '9999-12-31')",
    "label": "INSERT INTO label VALUES (2, 'two')",
}
CELLS = ("session", "mvcc", "wal")


@contextmanager
def configured(cell: str, fact, dim, sql: str):
    """A stratum holding the history, configured as ``cell`` says."""
    if cell == "wal":
        with tempfile.TemporaryDirectory() as path:
            build_stratum(fact, dim, TemporalStratum.open(path, sync=False)).close(
                checkpoint=False
            )
            stratum = TemporalStratum.open(path, sync=False)
            try:
                yield stratum
            finally:
                stratum.close(checkpoint=False)
        return
    stratum = build_stratum(fact, dim)
    if cell == "session":
        yield stratum
        return
    db = stratum.db
    stmt = stratum.parse(sql)
    written = getattr(stmt, "table", None)
    read = db.catalog.reach(stmt).tables - {written}
    dirty = next(name for name in DIRTY if name in read)
    committed = list(db.table(dirty).rows)
    session = db.create_session("oracle")
    db.execute("BEGIN")
    db.execute(DIRTY[dirty])
    db.activate_txn(session)
    # the oracle slices what the session reads: that must not be the
    # root's uncommitted row
    assert db.read_table(dirty).rows == committed
    try:
        yield stratum
    finally:
        db.activate_txn(db.root_txn)
        db.execute("ROLLBACK")
        db.close_session(session)


def _cases():
    for family in FAMILIES:
        for cell in CELLS:
            if family not in KNOWN_WRONG:
                yield pytest.param(family, EVERY, cell, id=f"{family}-{cell}")
                continue
            for strategy in EVERY:
                marks = () if strategy is PERST else pytest.mark.xfail(
                    strict=True, raises=AssertionError, reason=KNOWN_WRONG_REASON
                )
                yield pytest.param(
                    family, (strategy,), cell,
                    id=f"{family}-{strategy.value}-{cell}", marks=marks,
                )


# the two overlapping e1 versions PERST's DISTINCT returned twice
OVERLAPPING_E1 = [(1, 1, 8, 48, 9), (1, 2, 25, 35, 9)]


@pytest.mark.parametrize("family,strategies,cell", list(_cases()))
@settings(max_examples=4, deadline=None, suppress_health_check=list(HealthCheck))
@example(fact=OVERLAPPING_E1, dim=[(1, 1, 0, SPAN, 9)])
@given(fact=versions, dim=versions)
def test_family_equals_the_oracle(family, strategies, cell, fact, dim):
    sql = sequenced(FAMILIES[family])
    with configured(cell, fact, dim, sql) as stratum:
        assert check(stratum, sql, strategies) == verdicts(family, strategies)


def test_perst_distinct_of_overlapping_versions():
    """Two overlapping e1 versions, [2010-01-09, 2010-02-26) and
    [2010-01-26, 2010-03-02): DISTINCT keeps one e1 per snapshot.  PERST
    returned e1 twice over their overlap; it now refuses the top-level
    DISTINCT, and AUTO answers what MAX answers."""
    stratum = build_stratum(OVERLAPPING_E1, [])
    fact = sorted(
        (row[2].to_iso(), row[3].to_iso()) for row in stratum.db.table("fact").rows
    )
    assert fact == [("2010-01-09", "2010-02-26"), ("2010-01-26", "2010-03-02")]
    sql = sequenced(FAMILIES["distinct"])
    assert check(stratum, sql, EVERY) == {
        MAX: "agrees", PERST: "refused", SEQSET: "agrees", AUTO: "agrees",
    }


# ROADMAP item 18: two PERST defects, pinned on fixed histories.  Their
# fix moves the pinned PERST transform fingerprints, so it lands with
# that item; until then each is a strict xfail.
LATERAL_PERIOD_REASON = (
    "ROADMAP item 18: PERST runs a lateral TABLE(ps_f(...)) over the whole"
    " context, not the caller row's period"
)
CURSOR_AUX_REASON = (
    "ROADMAP item 18: PERST builds a cursor's taupsm_aux_<c> before the"
    " statements that precede its OPEN"
)
VAL_ABOVE = """
CREATE FUNCTION val_above (eid CHAR(4))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE lim INTEGER DEFAULT 0;
  DECLARE r INTEGER;
  DECLARE c CURSOR FOR SELECT val FROM fact WHERE entity = eid AND val > lim;
  SET lim = 1;
  OPEN c;
  FETCH c INTO r;
  CLOSE c;
  RETURN r;
END
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=LATERAL_PERIOD_REASON)
def test_perst_lateral_call_reads_the_caller_rows_period():
    """``fact`` holds e1 twice over [2010-01-01, 2010-01-02), where
    ``gap_band_of('e1')``'s scalar subquery has two rows; ``dim``'s e1
    is alive only from 2010-01-02 on.  No snapshot calls the routine on
    that first day, so every snapshot answers.  PERST evaluates the
    call over the whole context and raises CardinalityError (so does
    AUTO, which picks PERST here)."""
    stratum = build_stratum([(1, 1, 0, 1, 9), (1, 1, 0, 1, 9)], [(1, 1, 1, SPAN, 9)])
    sql = sequenced("SELECT d.entity, gap_band_of(d.entity) AS b FROM dim d")
    assert check(stratum, sql, (PERST,)) == {PERST: "agrees"}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=CURSOR_AUX_REASON)
def test_perst_cursor_reads_a_variable_set_before_open():
    """e2's only value, 1, over [2010-01-11, 2010-02-10): with ``lim``
    set to 1 before OPEN the cursor finds no row and ``r`` stays NULL in
    every snapshot.  PERST's cursor-body mode fills the cursor's table
    while ``lim`` still holds its DEFAULT 0, so it returns 1 (so does
    AUTO, which picks PERST here)."""
    stratum = build_stratum([(2, 1, 10, 30, 9)], [])
    stratum.register_routine(VAL_ABOVE)
    assert check(stratum, sequenced("SELECT val_above('e2') AS v"), (PERST,)) == {
        PERST: "agrees"
    }


"""Differential: the routine-result memo ≡ running every routine call.

Two strata are built from the same history; one runs with the memo
bypassed (``every_invocation_runs``), so no result is kept and no read
window is opened — every invocation runs its body.  Under MAX, through a
sequenced SELECT and a sequenced CALL, both must return the same rows in
the same order, or raise the same error class.  On the hand-built
histories a third stratum runs on the reference evaluators
(``tests/reference_executor.py`` + ``tests/reference_psm.py``), which
keep no memo either, and must agree just as strictly.  Random histories
carry NULL bounds, on which the reference's nested loop may raise for a
combination the engine rejects first (the join pipeline's licence,
checked in ``test_join_pipeline.py``), so they are compared with the
engine alone.

The routines cover each way a window is narrowed or a result reused: a
keyed probe (narrowed by the bucket's bounds), one with a column–literal
filter and a two-level one filtering its second level (narrowed by the
versions that filter does not reject), one filtering against a routine
variable (by every version again), a full scan and an
explicit JOIN (by the table's change points), a nested call with no read
of its own (callee → caller, run and reused), ``TABLE(g(…))`` in FROM and
inside a function, scratch in a temporary table of its own, a cursor
loop, a handler that continues past a
raising callee and one that re-raises, a write-bearing routine (whose
transformation must declare nothing), a bitemporal table, the
TRANSACTIONTIME dimension and a second MVCC session.  Histories carry
NULL, forever, adjacent, empty and duplicate periods.

Mutation-checked on ``HISTORY`` below (each fails
``test_fixed_history``): dropping ``_narrow_by_table`` in
``_Level.candidates`` or in ``_Scan.bind``, dropping the bucket
narrowing in ``_bucket_versions`` after a hash probe, dropping the
callee → caller narrowing after a run, and dropping it after a reuse.
Narrowing by the versions a hash probe's
stab keeps, instead of its whole bucket, fails
``test_a_rejected_version_narrows_the_window``.  Waiving the narrowing
for every bucket version fails ``test_fixed_history`` and
``test_a_version_a_filter_rejects_does_not_narrow``; waiving it for the
versions the point-free filters pass instead of those they reject fails
both too; counting a filter that reads an outer name as point-free fails
``test_a_version_a_filter_rejects_does_not_narrow`` (``rich_over`` runs
fewer times) and ``test_a_filter_on_the_point_is_never_free`` (a wrong
count reused).
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine.errors import SqlError
from repro.sqlengine.routines import RoutineInterpreter
from repro.sqlengine.values import Date, Null
from repro.temporal import SlicingStrategy, TemporalStratum
from tests.reference_executor import ReferenceExecutor
from tests.counters import routine_calls, routine_reuses

BASE = Date.from_iso("2010-01-01").ordinal
FOREVER = Date.MAX_ORDINAL
CONTEXT = f"[DATE '{Date(BASE).to_iso()}', DATE '{Date(BASE + 10).to_iso()}']"

SCHEMA = [
    "CREATE TABLE probe (k INTEGER)",
    "CREATE TABLE log (v INTEGER)",
    "CREATE TABLE emp (id INTEGER, dept INTEGER, sal INTEGER,"
    " begin_time DATE, end_time DATE)",
    "CREATE TABLE dept (id INTEGER, boss INTEGER, begin_time DATE, end_time DATE)",
    "CREATE TABLE price (item INTEGER, amount INTEGER, begin_time DATE,"
    " end_time DATE, tt_start DATE, tt_stop DATE)",
    "CREATE TABLE acct (id INTEGER, bal INTEGER, tt_start DATE, tt_stop DATE)",
]

ROUTINES = [
    # keyed probe; raises when two versions of k overlap
    """CREATE FUNCTION sal_of (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT sal FROM emp WHERE id = k); END""",
    """CREATE FUNCTION top_sal (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT MAX(sal) FROM emp WHERE id = k); END""",
    # full scan
    """CREATE FUNCTION richer (s INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT COUNT(*) FROM emp WHERE sal > s); END""",
    # nothing read here: the window is the callee's
    """CREATE FUNCTION twice (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN top_sal(k) * 2; END""",
    # explicit JOIN operands, then two nested calls
    """CREATE FUNCTION boss_sal (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE b INTEGER;
         SET b = (SELECT MAX(d.boss) FROM emp e JOIN dept d ON e.dept = d.id
                  WHERE e.id = k);
         RETURN top_sal(b) + richer(1);
       END""",
    """CREATE FUNCTION staff (d INTEGER) RETURNS ROW(id INTEGER, sal INTEGER) ARRAY
       READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE buf ROW(id INTEGER, sal INTEGER) ARRAY;
         INSERT INTO TABLE buf (SELECT id, sal FROM emp WHERE dept = d);
         RETURN buf;
       END""",
    """CREATE FUNCTION payroll (d INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT SUM(t.sal) FROM TABLE(staff(d)) t); END""",
    # scratch in a temporary table of its own
    """CREATE FUNCTION headcount (d INTEGER) RETURNS INTEGER LANGUAGE SQL
       BEGIN
         DECLARE n INTEGER;
         CREATE TEMPORARY TABLE tmp_staff AS (SELECT id, sal FROM emp WHERE dept = d);
         SET n = (SELECT COUNT(*) FROM tmp_staff WHERE sal > 5);
         DROP TABLE tmp_staff;
         RETURN n;
       END""",
    """CREATE FUNCTION count_rich () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE k INTEGER;
         DECLARE n INTEGER DEFAULT 0;
         DECLARE done INTEGER DEFAULT 0;
         DECLARE c CURSOR FOR SELECT id FROM dept ORDER BY id;
         DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
         OPEN c;
         FETCH c INTO k;
         w: WHILE done = 0 DO
           IF top_sal(k) > 6 THEN SET n = n + 1; END IF;
           FETCH c INTO k;
         END WHILE w;
         CLOSE c;
         RETURN n;
       END""",
    """CREATE FUNCTION safe_sal (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE r INTEGER DEFAULT -1;
         DECLARE CONTINUE HANDLER FOR SQLEXCEPTION SET r = -2;
         SET r = sal_of(k);
         RETURN r;
       END""",
    """CREATE FUNCTION strict_sal (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE EXIT HANDLER FOR SQLEXCEPTION SIGNAL SQLSTATE '45000';
         RETURN sal_of(k);
       END""",
    """CREATE FUNCTION noted_sal (k INTEGER) RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL
       BEGIN INSERT INTO log VALUES (k); RETURN top_sal(k); END""",
    # bitemporal read beside a valid-time-only callee
    """CREATE FUNCTION price_of (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT MAX(amount) FROM price WHERE item = k) + twice(k); END""",
    """CREATE FUNCTION bal_of (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT MAX(bal) FROM acct WHERE id = k); END""",
    # a keyed probe with a point-free filter: a version it rejects does
    # not narrow the window
    """CREATE FUNCTION rich_in (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN RETURN (SELECT COUNT(*) FROM emp WHERE dept = k AND sal > 6); END""",
    # the filter on the second of two keyed levels
    """CREATE FUNCTION rich_boss (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN
         RETURN (SELECT COUNT(*) FROM dept d, emp e
                 WHERE d.id = k AND e.id = d.boss AND e.sal > 6);
       END""",
    # a filter against a routine variable is not point-free: every
    # version narrows
    """CREATE FUNCTION rich_over (k INTEGER) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
       BEGIN
         DECLARE s INTEGER DEFAULT 6;
         RETURN (SELECT COUNT(*) FROM emp WHERE dept = k AND sal > s);
       END""",
    """CREATE PROCEDURE report (k INTEGER) LANGUAGE SQL
       BEGIN
         SELECT twice(k) AS t, boss_sal(k) AS b, payroll(k) AS p, top_sal(k) AS s;
         SELECT t.id, t.sal FROM TABLE(staff(k)) t;
       END""",
]

SELECTS = [
    "SELECT p.k, sal_of(p.k) FROM probe p",
    "SELECT p.k, richer(p.k) FROM probe p",
    "SELECT p.k, twice(p.k) FROM probe p",
    "SELECT p.k, top_sal(p.k), twice(p.k) FROM probe p",
    "SELECT p.k, boss_sal(p.k) FROM probe p",
    "SELECT p.k, t.id, t.sal, payroll(p.k) FROM probe p, TABLE(staff(p.k)) t",
    "SELECT p.k, payroll(p.k) FROM probe p",
    "SELECT p.k, headcount(p.k) FROM probe p",
    "SELECT count_rich() AS n",
    "SELECT p.k, safe_sal(p.k), top_sal(p.k) FROM probe p",
    "SELECT p.k, strict_sal(p.k) FROM probe p",
    "SELECT p.k, price_of(p.k) FROM probe p",
    "SELECT e.id, twice(e.id) FROM emp e WHERE sal_of(e.dept) > 0",
    "SELECT p.k, rich_in(p.k) FROM probe p",
    "SELECT p.k, rich_boss(p.k) FROM probe p",
    "SELECT p.k, rich_over(p.k) FROM probe p",
]
STATEMENTS = [f"VALIDTIME {CONTEXT} {select}" for select in SELECTS] + [
    f"VALIDTIME {CONTEXT} CALL report(1)",
    f"VALIDTIME {CONTEXT} CALL report(2)",
    f"TRANSACTIONTIME {CONTEXT} SELECT p.k, bal_of(p.k) FROM probe p",
]
WRITER = f"VALIDTIME {CONTEXT} SELECT p.k, noted_sal(p.k) FROM probe p"

DAYS = st.sampled_from([None, 0, 2, 4, 4, 6, 9, FOREVER - BASE])
KEYS = st.sampled_from([1, 1, 2, 3])
AMOUNTS = st.sampled_from([Null, 0, 5, 7, 7, 20])
emp_rows = st.lists(st.tuples(KEYS, KEYS, AMOUNTS, DAYS, DAYS), max_size=7)
dept_rows = st.lists(st.tuples(KEYS, KEYS, DAYS, DAYS), max_size=4)
price_rows = st.lists(st.tuples(KEYS, AMOUNTS, DAYS, DAYS, DAYS, DAYS), max_size=5)
acct_rows = st.lists(st.tuples(KEYS, AMOUNTS, DAYS, DAYS), max_size=5)

# every routine's value moves inside the context, at points that are not
# all change points of the table as a whole
HISTORY = {
    "emp": [
        (1, 1, 10, 0, 4), (1, 1, 20, 4, 9), (2, 1, 5, 2, 6),
        (2, 2, 7, 6, FOREVER - BASE), (3, 2, 30, 0, 7),
        (3, 2, 31, 7, FOREVER - BASE),
    ],
    "dept": [(1, 3, 0, 5), (1, 2, 5, FOREVER - BASE), (2, 1, 0, FOREVER - BASE)],
    "price": [(1, 5, 0, 6, 0, FOREVER - BASE), (1, 7, 6, 9, 2, FOREVER - BASE)],
    "acct": [(1, 5, 0, 4), (1, 7, 4, FOREVER - BASE), (2, 0, 2, 6)],
}


def day(offset):
    return Null if offset is None else Date(BASE + offset)


def build(history, reference: bool = False) -> TemporalStratum:
    """A stratum over ``history``, on the engine or on the reference."""
    stratum = TemporalStratum()
    db = stratum.db
    for ddl in SCHEMA:
        db.execute(ddl)
    db.now = Date(BASE + 5)
    for name in ("emp", "dept", "price"):
        stratum.execute(f"ALTER TABLE {name} ADD VALIDTIME")
    for name in ("price", "acct"):
        stratum.execute(f"ALTER TABLE {name} ADD TRANSACTIONTIME")
    db.insert_rows("probe", [[1], [1], [2], [Null]])
    for name, dates in (("emp", 2), ("dept", 2), ("price", 4), ("acct", 2)):
        db.insert_rows(name, [
            list(row[:-dates]) + [day(offset) for offset in row[-dates:]]
            for row in history[name]
        ])
    for routine in ROUTINES:
        stratum.register_routine(routine)
    if reference:
        db._executor = ReferenceExecutor(db)
    return stratum


def outcome(stratum: TemporalStratum, sql: str):
    try:
        result = stratum.execute(sql, strategy=SlicingStrategy.MAX)
    except SqlError as exc:
        return "error", type(exc)
    results = result if isinstance(result, list) else [result]
    return "rows", [(list(r.columns), [list(row) for row in r.rows]) for r in results]


@contextmanager
def every_invocation_runs():
    """The engine with the routine-result memo bypassed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            RoutineInterpreter, "_reused",
            lambda self, routine, args, run: run(routine, args),
        )
        yield


def check(history, reference: bool = False) -> TemporalStratum:
    """The memo ≡ every invocation run; with ``reference``, ≡ the
    reference evaluators too."""
    kept, plain = build(history), build(history)
    walker = build(history, reference=True) if reference else None
    for sql in STATEMENTS:
        engine = outcome(kept, sql)
        with every_invocation_runs():
            assert outcome(plain, sql) == engine, sql
        if walker is not None:
            assert outcome(walker, sql) == engine, sql
    assert not routine_reuses(plain.db)
    return kept


def test_fixed_history():
    kept = check(HISTORY, reference=True)
    reuses = routine_reuses(kept.db)
    # not vacuous: every windowed shape was served from the memo
    for name in ("max_sal_of", "max_top_sal", "max_richer", "max_twice",
                 "max_boss_sal", "max_staff", "max_payroll", "max_headcount",
                 "max_count_rich",
                 "max_safe_sal", "max_bal_of", "max_rich_in", "max_rich_boss",
                 "max_rich_over"):
        assert reuses.get(name, 0) > 0, name


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(emp=emp_rows, dept=dept_rows, price=price_rows, acct=acct_rows)
def test_random_histories(emp, dept, price, acct):
    check({"emp": emp, "dept": dept, "price": price, "acct": acct})


def test_a_rejected_version_narrows_the_window():
    """``top_sal(1)`` at day 0: the key's version over [0, 9) is alive,
    the one over [4, 6) is rejected by the probe's stab — and still ends
    the read window at day 4, or the result at days 0–3 would be reused
    at days 4 and 5, where the second version counts.  Key 2 changes
    almost daily so that there are more slices than windows.  The memo
    must return the reference's rows and run exactly once per distinct
    (key, window), the window computed here from *all* versions of the
    key."""
    emp = [(1, 1, 10, 0, 9), (1, 1, 20, 4, 6)] + [
        (2, 1, sal, begin, end)
        for sal, (begin, end) in enumerate(
            [(0, 1), (1, 2), (2, 3), (3, 5), (5, 7), (7, 8), (8, FOREVER - BASE)]
        )
    ]
    history = {"emp": emp, "dept": [], "price": [], "acct": []}
    kept, plain = build(history), build(history, reference=True)
    sql = f"VALIDTIME {CONTEXT} SELECT p.k, top_sal(p.k) FROM probe p"
    assert outcome(kept, sql) == outcome(plain, sql)
    name = "max_top_sal"
    run = routine_calls(kept.db)[name]
    reused = routine_reuses(kept.db)[name]
    points = range(10)  # every day of the context is a change point of emp
    keys = [1, 1, 2, Null]  # the probe rows
    assert run + reused == routine_calls(plain.db)[name] == len(keys) * len(points)

    def window(key, point):
        bounds = [b for row in emp if row[0] == key for b in row[3:]]
        return (
            max((b for b in bounds if b <= point), default=None),
            min((b for b in bounds if b > point), default=None),
        )

    windows = {(key, window(key, point)) for key in keys for point in points}
    assert run == len(windows) == 12


def test_a_version_a_filter_rejects_does_not_narrow():
    """``rich_in(1)`` at day 0: the dept's version over [4, 6) earns 5,
    which ``sal > 6`` rejects at every point, so it does not end the read
    window at day 4 — the result is 1 over days 0–8 either way.  Dept 2
    changes almost daily, every other version rejected.  ``rich_over``
    compares with a routine variable instead, which is no point-free
    filter: every version narrows its window.  The memo must return the
    reference's rows and run exactly once per distinct (key, window), the
    windows computed here from the versions that pass the filter
    (``rich_in``) or from all of them (``rich_over``); the versions
    waived are those that would have tightened ``rich_in``'s window."""
    emp = [(1, 1, 10, 0, 9), (2, 1, 5, 4, 6)] + [
        (3, 2, sal, begin, end)
        for sal, (begin, end) in zip(
            [7, 1, 2, 8, 3, 9, 4],
            [(0, 1), (1, 2), (2, 3), (3, 5), (5, 7), (7, 8), (8, FOREVER - BASE)],
        )
    ]
    history = {"emp": emp, "dept": [], "price": [], "acct": []}
    kept, plain = build(history), build(history, reference=True)
    sql = f"VALIDTIME {CONTEXT} SELECT p.k, rich_in(p.k), rich_over(p.k) FROM probe p"
    assert outcome(kept, sql) == outcome(plain, sql)
    points = range(10)  # every day of the context is a change point of emp
    keys = [1, 1, 2, Null]  # the probe rows

    def window(versions, point):
        bounds = [b for row in versions for b in row[3:]]
        return (
            max((b for b in bounds if b <= point), default=None),
            min((b for b in bounds if b > point), default=None),
        )

    run_by, reused_by = routine_calls(kept.db), routine_reuses(kept.db)
    for name, passes, count in (
        ("max_rich_in", lambda row: row[2] > 6, 9),
        ("max_rich_over", lambda row: True, 12),
    ):
        run, reused = run_by[name], reused_by[name]
        assert run + reused == routine_calls(plain.db)[name] == len(keys) * len(points)
        windows = {
            (key, window([r for r in emp if r[1] == key and passes(r)], point))
            for key in keys for point in points
        }
        assert run == len(windows) == count

    # each run of rich_in is at the first day of its window; a version is
    # waived there when its bounds would tighten the window that the
    # passing versions before it (table order) left
    waived = 0
    for key in (1, 2):
        seen = set()
        for point in points:
            cell = window([r for r in emp if r[1] == key and r[2] > 6], point)
            if cell in seen:
                continue
            seen.add(cell)
            narrowed: list = []
            for row in (r for r in emp if r[1] == key):
                if window(narrowed + [row], point) != window(narrowed, point):
                    if row[2] > 6:
                        narrowed.append(row)
                    else:
                        waived += 1
    assert kept.db.obs.value("engine.read_window.versions_waived") == waived == 15


def test_a_filter_on_the_point_is_never_free():
    """A table whose first declared date pair is not its valid time: the
    hash probe takes the literal bound on that pair, so the clone's
    valid-time bounds on ``begin_time_in`` stay level filters.  They read
    an outer name, so they are not point-free: the version over [4, 6),
    which they reject at day 0, still ends the window there, or day 0's
    count would be reused at days 4 and 5, where it is 2."""
    strata = []
    for reference in (False, False, True):
        stratum = TemporalStratum()
        db = stratum.db
        db.execute("CREATE TABLE probe (k INTEGER)")
        db.execute(
            "CREATE TABLE post (id INTEGER, seen DATE, gone DATE,"
            " begin_time DATE, end_time DATE)"
        )
        db.catalog.get_table("post").declare_interval("seen", "gone")
        stratum.execute("ALTER TABLE post ADD VALIDTIME")
        db.insert_rows("probe", [[1], [1]])
        db.insert_rows("post", [
            [1, day(0), day(FOREVER - BASE), day(begin), day(end)]
            for begin, end in ((0, 9), (4, 6))
        ])
        stratum.register_routine(
            "CREATE FUNCTION posted (k INTEGER) RETURNS INTEGER READS SQL DATA"
            " LANGUAGE SQL BEGIN RETURN (SELECT COUNT(*) FROM post"
            f" WHERE id = k AND gone > DATE '{Date(BASE).to_iso()}'); END"
        )
        if reference:
            db._executor = ReferenceExecutor(db)
        strata.append(stratum)
    kept, plain, walker = strata
    sql = f"VALIDTIME {CONTEXT} SELECT p.k, posted(p.k) FROM probe p"
    engine = outcome(kept, sql)
    with every_invocation_runs():
        assert outcome(plain, sql) == engine
    assert outcome(walker, sql) == engine
    assert [row[1] for row in engine[1][0][1]] == [1, 1, 2, 2, 1, 1, 0, 0]
    assert routine_reuses(kept.db)["max_posted"] > 0
    assert kept.db.obs.value("engine.read_window.versions_waived") == 0


def test_second_session_reads_its_snapshot():
    """Windows come from the read view's change points, not the live
    table's: a reader pinned before another session's commit."""
    strata = build(HISTORY), build(HISTORY, reference=True)
    for stratum in strata:
        db = stratum.db
        session = db.create_session("reader")
        db.activate_txn(session)
        stratum.execute("BEGIN")
        pinned = [outcome(stratum, sql) for sql in STATEMENTS[:5]]
        db.activate_txn(db.root_txn)
        db.execute(
            f"INSERT INTO emp VALUES (1, 1, 99, DATE '{Date(BASE + 1).to_iso()}',"
            f" DATE '{Date(BASE + 3).to_iso()}')"
        )
        stratum.live = [outcome(stratum, sql) for sql in STATEMENTS[:5]]
        db.activate_txn(session)
        stratum.pinned = [outcome(stratum, sql) for sql in STATEMENTS[:5]]
        assert stratum.pinned == pinned != stratum.live
        stratum.execute("COMMIT")
        db.close_session(session)
    assert strata[0].live == strata[1].live
    assert strata[0].pinned == strata[1].pinned


class TestEligibility:
    """One rule: a routine that writes, or reaches one that does, is
    never reused — and a transformation holding one declares nothing."""

    def declared(self, stratum, name):
        return stratum.db.catalog.get_routine(name).window_param

    def test_writer_in_the_statement_declares_no_clone(self):
        kept, plain = build(HISTORY), build(HISTORY, reference=True)
        assert outcome(kept, WRITER) == outcome(plain, WRITER)
        assert self.declared(kept, "max_noted_sal") is None
        assert self.declared(kept, "max_top_sal") is None
        logged = len(kept.db.catalog.get_table("log"))
        assert 0 < logged == len(plain.db.catalog.get_table("log"))
        assert not routine_reuses(kept.db)
        # the shared clone is declared by a statement that may, and
        # undeclared again when the writer's statement returns
        kept.execute(STATEMENTS[2], strategy=SlicingStrategy.MAX)
        assert self.declared(kept, "max_top_sal") == 1
        assert routine_reuses(kept.db)["max_twice"] > 0
        before = routine_reuses(kept.db)
        kept.execute(WRITER, strategy=SlicingStrategy.MAX)
        assert self.declared(kept, "max_top_sal") is None
        assert routine_reuses(kept.db) == before
        assert len(kept.db.catalog.get_table("log")) == 2 * logged

    def test_only_max_clones_are_declared(self):
        kept = build(HISTORY)
        for sql in STATEMENTS:
            outcome(kept, sql)
            outcome(kept, sql.replace(f"VALIDTIME {CONTEXT} ", ""))  # current
        for sql in STATEMENTS[:5]:
            try:
                kept.execute(sql, strategy=SlicingStrategy.PERST)
            except SqlError:
                pass
        declared = {
            routine.name.lower() for routine in kept.db.catalog.routines()
            if routine.window_param is not None
        }
        assert declared and all(name.startswith("max_") for name in declared)
        # the appended point is the last parameter
        for name in declared:
            routine = kept.db.catalog.get_routine(name)
            assert routine.window_param == len(routine.params) - 1

    def test_write_free_predicate(self):
        db = build(HISTORY).db
        write_free = db.catalog.write_free
        assert write_free("staff")  # writes its own row array only
        assert write_free("count_rich")
        assert write_free("staff", "count_rich", "no_such_routine")
        assert not write_free("noted_sal")
        assert not write_free("staff", "noted_sal")
        for name, body in [
            ("relay", "RETURN noted_sal(k);"),  # reaches a writer
            ("keeps", "CREATE TABLE s (x INTEGER); RETURN k;"),
            # a temporary table it creates is scratch, like a row array
            ("scratch", "CREATE TEMPORARY TABLE tmp (x INTEGER);"
                        " INSERT INTO tmp VALUES (k); DROP TABLE tmp; RETURN k;"),
            # ... unless another routine of the closure names it
            ("fills", "CREATE TEMPORARY TABLE shared (x INTEGER); RETURN k;"),
            ("counts", "DECLARE n INTEGER; SET n = fills(k);"
                      " RETURN (SELECT COUNT(*) FROM shared);"),
            ("drops", "DROP TABLE probe; RETURN k;"),
        ]:
            db.execute(
                f"CREATE FUNCTION {name} (k INTEGER) RETURNS INTEGER LANGUAGE SQL"
                f" BEGIN {body} END"
            )
        assert not write_free("relay")
        assert not write_free("keeps")
        assert write_free("scratch")
        assert write_free("fills")
        assert not write_free("counts")
        assert not write_free("fills", "counts")
        assert not write_free("drops")


class TestTableFunctionSideEffects:
    """The memo used to drop a table function's writes on a repeated
    argument: 2 rows logged for ``t = (1), (1), (2)``."""

    @pytest.mark.parametrize("engine", [True, False])
    def test_every_invocation_writes(self, engine):
        """On the engine, and on the reference, which keeps no memo."""
        from repro.sqlengine import Database

        db = Database()
        if not engine:
            db._executor = ReferenceExecutor(db)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("CREATE TABLE log (v INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (1), (2)")
        db.execute(
            "CREATE FUNCTION f (v INTEGER) RETURNS ROW(y INTEGER) ARRAY"
            " MODIFIES SQL DATA LANGUAGE SQL"
            " BEGIN"
            "   DECLARE buf ROW(y INTEGER) ARRAY;"
            "   INSERT INTO log VALUES (v);"
            "   INSERT INTO TABLE buf (SELECT x + 10 FROM t WHERE x = v);"
            "   RETURN buf;"
            " END"
        )
        rows = db.execute("SELECT t.x, g.y FROM t, TABLE(f(t.x)) g").rows
        assert rows == [[1, 11], [1, 11], [1, 11], [1, 11], [2, 12]]
        assert len(db.catalog.get_table("log")) == 3

    def test_read_only_table_function_still_reused(self):
        from repro.sqlengine import Database

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (1), (2)")
        db.execute(
            "CREATE FUNCTION f (v INTEGER) RETURNS ROW(y INTEGER) ARRAY"
            " READS SQL DATA LANGUAGE SQL"
            " BEGIN"
            "   DECLARE buf ROW(y INTEGER) ARRAY;"
            "   INSERT INTO TABLE buf (SELECT x + 10 FROM t WHERE x = v);"
            "   RETURN buf;"
            " END"
        )
        db.execute("SELECT t.x, g.y FROM t, TABLE(f(t.x)) g")
        assert routine_calls(db)["f"] == 2
        assert routine_reuses(db) == {"f": 1}
        assert db.obs.value("engine.routine_memo.entries") == 2

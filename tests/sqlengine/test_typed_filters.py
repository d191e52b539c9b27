"""A join level's total conjuncts run as typed tests written into
generated code (``planner._checks``): date ordinals, right-stripped
characters, native numbers, each test inlined in the loop over the
level's candidates, with the operands bound before the level read once.
``values.compare`` stays the specification — for every operator and
every pair of operands of one class a test must hold exactly where the
comparison evaluates to TRUE, so NULL rejects (a NULL operand bound
before the level passes no row), bool is an integer, CHAR padding is
ignored and NaN equals NaN above every other number.  A non-negated
``value BETWEEN low AND high`` is one such test, held to the engine's own
evaluation of the predicate.

The same writer serves a level of a generated plan function
(``planner._nest``: bind, count, hand on — inner or leaf), an aligned
level's own tests and an aligned join's tests per combination
(``planner._level_loop``'s sieves) and the point-free check of a hash
probe's read window.  Row by row, both forms must keep exactly the
candidates ``compare`` keeps; on whole plans, the counters a level keeps
— ``rows_in`` / ``rows_out``, ``engine.join.level_rejects``,
``engine.read_window.versions_waived`` — must equal those of a closure
path that calls one ``compare`` per test and reads nothing once, as the
levels did before the tests were generated."""

import traceback
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database, ast_nodes as ast, planner
from repro.sqlengine.errors import SqlError
from repro.sqlengine.executor import Env, _apply_binary
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.planner import _COMPARISONS, _level_loop, build_select_plan
from repro.sqlengine.values import Date, Null
from repro.temporal import SlicingStrategy, TemporalStratum

from tests.reference_executor import installed

NAN = float("nan")
INF = float("inf")

NUMBERS = st.one_of(
    st.sampled_from([
        Null, True, False, 0, 1, -1, 2, 0.0, -0.0, 1.0, 0.5, INF, -INF, NAN,
        2 ** 53, 2 ** 53 + 1, float(2 ** 53), 2 ** 70,
    ]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)
CHARACTERS = st.one_of(
    st.sampled_from([Null, "", " ", "a", "a ", "a  ", "b", "ab", " a"]),
    st.text(alphabet="ab ", max_size=4),
)
DATES = st.one_of(
    st.sampled_from([Null, Date.MIN, Date.MAX, Date(Date.MAX_ORDINAL - 1)]),
    st.builds(Date, st.integers(Date.MIN_ORDINAL, Date.MAX_ORDINAL)),
)
CLASSES = {"numeric": NUMBERS, "character": CHARACTERS, "date": DATES}

DB = Database()
EVALUATE = DB.executor.evaluate

# The row vector of a level at FROM position 1: an earlier level's row,
# the level's own candidate, then the outer slots.  An operand is one of
# the candidate's two columns, a column of the earlier level or a slot.
POS = 1
ADDRESSES = [(POS, 0), (POS, 1), (0, 0), (0, 1), (2, 0), (2, 1)]


def holds(value_class: str, op: str, at: tuple, vector: list) -> bool:
    """``compare``'s verdict on one typed test over ``vector``."""
    values = [vector[a][b] for a, b in at]
    if op == "BETWEEN":
        value, low, high = (ast.Literal(value=v) for v in values)
        predicate = ast.BetweenPredicate(expr=value, low=low, high=high, negated=False)
        return EVALUATE(predicate, Env()) is True
    return _apply_binary(op, *values) is True


class FixedScan(planner._Scan):
    """A scan level over given rows, bound without a catalog."""

    def __init__(self, key: str, rows: list) -> None:
        self.name = self.alias = self.key = key
        self.colmap = {"x": 0, "y": 1}
        self.pairs = []
        self.period_columns = ()
        self.table = mock.Mock(rows=rows)

    def validate(self, executor, env):
        return self.table


def scan(tests: tuple, rows: list, vector: list, leaf: bool) -> tuple:
    """Run a generated plan over ``vector``'s earlier row, the level of
    ``rows`` under ``tests`` and — unless it is the ``leaf`` — one more
    level after it: the level's rows it hands on (each checked to be
    bound), its rows in / out and the ``engine.join.level_rejects`` it
    counted."""
    rejects = DB.obs.value("engine.join.level_rejects")
    sources = [FixedScan("e", [vector[0]]), FixedScan("t", rows)]
    if not leaf:  # the outer slots follow every source
        sources.append(FixedScan("z", [["pad", "pad"]]))
        tests = tuple(
            (value_class, op, tuple((3 if a == 2 else a, b) for a, b in at))
            for value_class, op, at in tests
        )
    levels = [planner._Level(node, pos) for pos, node in enumerate(sources)]
    levels[POS].filters = list(tests)
    owner = mock.Mock(
        sources=sources, outer_cs=vector[2],
        consumer=planner._Consumer("rows", (("closure", lambda env: env.bindings["t"].row),)),
    )
    run = planner._nest(planner._Pipeline(levels, len(levels), []), owner)
    tables = [node.validate(DB.executor, Env()) for node in sources]
    out, _, _ = run(DB.executor, Env(), tables, vector[2])
    rejects = DB.obs.value("engine.join.level_rejects") - rejects
    return [row for (row,) in out], (levels[POS].rows_in, levels[POS].rows_out), rejects


def check_shape(tests: tuple, rows: list, vector: list) -> None:
    """The sieve and a generated plan's level, inner or leaf, all keep
    exactly the rows ``compare`` makes every test TRUE on, in order."""
    expected = []
    for row in rows:
        vector[POS] = row
        if all(holds(value_class, op, at, vector) for value_class, op, at in tests):
            expected.append(row)
    vector[POS] = None
    kept = _level_loop(POS, tests)(vector, rows)
    assert [id(row) for row in kept] == [id(row) for row in expected], (tests, rows, vector)
    for leaf in (True, False):
        handed, counts, rejects = scan(tests, rows, vector, leaf)
        assert [id(row) for row in handed] == [id(row) for row in expected]
        assert counts == (len(rows), len(expected))
        assert rejects == len(rows) - len(expected)


def typed_tests(value_class: str):
    comparison = st.tuples(
        st.just(value_class), st.sampled_from(sorted(_COMPARISONS)),
        st.tuples(st.sampled_from(ADDRESSES), st.sampled_from(ADDRESSES)),
    )
    between = st.tuples(
        st.just(value_class), st.just("BETWEEN"),
        st.tuples(*[st.sampled_from(ADDRESSES)] * 3),
    )
    return st.lists(st.one_of(comparison, between), min_size=1, max_size=3).map(tuple)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value_class=st.sampled_from(sorted(CLASSES)))
def test_generated_loops_agree_with_compare(data, value_class):
    """Random shapes over one class: operands on the candidate, on an
    earlier level and in outer slots, several tests sharing columns."""
    values = CLASSES[value_class]
    pair = st.lists(values, min_size=2, max_size=2)
    tests = data.draw(typed_tests(value_class), label="tests")
    rows = data.draw(st.lists(pair, max_size=6), label="rows")
    vector = [data.draw(pair, label="earlier"), None, data.draw(pair, label="slots")]
    check_shape(tests, rows, vector)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), op=st.sampled_from(sorted(_COMPARISONS)),
       value_class=st.sampled_from(sorted(CLASSES)),
       right=st.sampled_from([(POS, 1), (0, 1), (2, 0)]))
def test_each_operator_agrees_with_compare(data, op, value_class, right):
    """Every operator and class, the candidate's column against another
    column of it, an earlier level's column or an outer slot."""
    left = data.draw(CLASSES[value_class], label="left")
    other = data.draw(CLASSES[value_class], label="right")
    row = [left, other]
    vector = [["pad", other], None, [other]]
    check_shape(((value_class, op, ((POS, 0), right)),), [row], vector)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), value_class=st.sampled_from(sorted(CLASSES)))
def test_between_agrees_with_the_engine(data, value_class):
    value, low, high = (
        data.draw(CLASSES[value_class], label=label)
        for label in ("value", "low", "high")
    )
    # the bounds bound before the level, the value the candidate's
    vector = [[low, "pad"], None, [high]]
    check_shape(((value_class, "BETWEEN", ((POS, 0), (0, 0), (2, 0))),), [[value, "pad"]], vector)


def test_the_edges_by_hand():
    """The cases the properties must cover, written out."""
    def passes(value_class, left, op, right, hoisted=True):
        at = ((POS, 0), (2, 0) if hoisted else (POS, 1))
        vector = [None, None, [right]]
        return bool(_level_loop(POS, ((value_class, op, at),))(vector, [[left, right]]))

    for hoisted in (True, False):
        assert passes("numeric", True, "=", 1, hoisted) and passes("numeric", False, "<", 1, hoisted)
        assert passes("numeric", 1, "=", 1.0, hoisted) and passes("numeric", 0.0, "=", -0.0, hoisted)
        assert passes("numeric", NAN, "=", NAN, hoisted) and not passes("numeric", NAN, "<>", NAN, hoisted)
        assert passes("numeric", NAN, ">", INF, hoisted) and passes("numeric", -INF, "<", NAN, hoisted)
        assert not passes("numeric", NAN, "=", 1.0, hoisted) and passes("numeric", NAN, "<>", 1.0, hoisted)
        assert passes("numeric", INF, ">", 2 ** 70, hoisted) and passes("numeric", -INF, "<", -(2 ** 70), hoisted)
        assert passes("character", "a  ", "=", "a", hoisted) and passes("character", " a", "<>", "a", hoisted)
        assert passes("date", Date.MIN, "<", Date.MAX, hoisted)
        for value_class, value in (("numeric", 1), ("character", "a"), ("date", Date.MIN)):
            for op in _COMPARISONS:
                assert not passes(value_class, Null, op, value, hoisted)
                assert not passes(value_class, value, op, Null, hoisted)


def test_a_null_bound_before_the_level_passes_no_row():
    """A NULL outer operand is read once: no candidate passes, and the
    level still counts every candidate in and rejected."""
    rows = [[1, 1], [2, 2], [NAN, 3]]
    tests = (("numeric", "BETWEEN", ((POS, 0), (2, 0), (2, 1))),)
    for leaf in (True, False):
        handed, counts, rejects = scan(tests, rows, [None, None, [0, Null]], leaf)
        assert handed == [] and counts == (3, 0) and rejects == 3
    assert _level_loop(POS, tests)([None, None, [Null, 9]], rows) == []
    handed, counts, rejects = scan(tests, rows, [None, None, [0, 9]], True)
    assert handed == rows[:2] and counts == (3, 2) and rejects == 1


def test_generated_code_is_shared_by_shape_and_named_after_the_level():
    tests = (("numeric", ">", ((POS, 0), (2, 0))),)
    assert _level_loop(POS, tests) is _level_loop(POS, tests)
    assert _level_loop(POS, tests).__code__.co_filename == "<sieve level 1>"
    # a candidate of the wrong class raises inside the generated code
    with pytest.raises(TypeError) as caught:
        _level_loop(POS, tests)([None, None, [1]], [["x"]])
    frames = traceback.extract_tb(caught.value.__traceback__)
    assert frames[-1].filename == "<sieve level 1>"
    with pytest.raises(TypeError) as caught:
        scan(tests, [["x", "y"]], [["e", "e"], None, [1]], True)
    frames = traceback.extract_tb(caught.value.__traceback__)
    assert frames[-1].filename == "<plan 2 levels>"
    # plans that differ in columns and constants only share one code object
    db = Database()
    db.execute("CREATE TABLE t (n FLOAT, m FLOAT, c CHAR(4))")
    first, second = (
        build_select_plan(db.executor, parse_statement(sql)).pipeline.function
        for sql in ("SELECT c FROM t WHERE n > 1", "SELECT n FROM t WHERE m > 2")
    )
    assert first is not second and first.__code__ is second.__code__
    assert first.__code__.co_filename == "<plan 1 levels>"


def test_a_wrong_class_literal_is_demoted_to_the_residual():
    """An outer operand of another class than its column makes the
    conjunct partial for that execution: it leaves the level's tests for
    the residual, which raises where ``compare`` raises."""
    db = Database()
    db.execute("CREATE TABLE t (n FLOAT, c CHAR(4))")
    db.execute("INSERT INTO t VALUES (1.0, 'a'), (NULL, 'b'), (3.0, NULL)")
    executor = db.executor
    plan = build_select_plan(executor, parse_statement("SELECT c FROM t WHERE n > 'x'"))
    assert len(plan.pipeline.levels[0].filters) == 1
    with pytest.raises(SqlError):
        plan.run(executor, None, True)
    ((demoted, variant),) = plan.variants.items()
    assert demoted == {0} and variant.levels[0].filters == [] and len(variant.residual) == 1
    # a total conjunct that rejects every row leaves the residual unread
    assert db.execute("SELECT c FROM t WHERE n > 'x' AND c = 'z'").rows == []
    for reference in (False, True):
        with pytest.raises(SqlError):
            if reference:
                with installed(db):
                    db.execute("SELECT c FROM t WHERE c = 1")
            else:
                db.execute("SELECT c FROM t WHERE c = 1")


# ---------------------------------------------------------------------------
# whole plans: the counters equal the closure path's
# ---------------------------------------------------------------------------


def compare_checks(pos: int, tests: tuple, read) -> tuple:
    """The closure path the generated tests replace: nothing read once,
    every test a ``compare`` (through ``_apply_binary``) per candidate —
    a ``BETWEEN`` its two halves.  A drop-in for :func:`planner._checks`."""
    each = []
    for _, op, at in tests:
        halves = ((">=", at[:2]), ("<=", at[::2])) if op == "BETWEEN" else ((op, at),)
        for half, (left, right) in halves:
            each.append(f"_apply_binary({half!r}, {read(left)[1]}, {read(right)[1]}) is True")
    return [], [], [], [], each


def closure_sieve(pos: int, tests: tuple):
    """The closure path's sieve: each candidate stored in the row vector
    and every test one ``compare``.  A drop-in for :func:`planner._level_loop`."""
    def sieve(vector: list, rows) -> list:
        vector = list(vector)
        kept = []
        for row in rows:
            vector[pos] = row
            if all(holds(value_class, op, at, vector) for value_class, op, at in tests):
                kept.append(row)
        return kept
    return sieve


@contextmanager
def closure_path():
    with mock.patch.object(planner, "_checks", compare_checks), \
            mock.patch.object(planner, "_level_loop", closure_sieve), \
            mock.patch.dict(planner._GENERATED, {"_apply_binary": _apply_binary}):
        yield


BASE = Date.from_iso("2010-01-01").ordinal
COUNTERS = [
    "engine.rows_scanned", "engine.join.level_rejects",
    "engine.read_window.versions_waived", "engine.period_probe.rows_pruned",
    "engine.join.aligned",
]
DAYS = st.sampled_from([Null, 0, 1, 2, 3, 5, 9])
rows_h = st.lists(
    st.tuples(
        st.sampled_from([Null, 0, 1, 2]),
        st.sampled_from([Null, -1.5, 0, 1, 2.5, NAN, INF, -INF]),
        st.sampled_from([Null, "", "a", "a  ", "b"]),
        DAYS, DAYS, DAYS,
    ),
    max_size=8,
)
# MAX-planned statements: leaf and inner levels, tests on earlier levels'
# columns, BETWEEN, a NULL literal, a routine variable
ENGINE = [
    "SELECT k, v FROM h WHERE v > 0",
    "SELECT k FROM h WHERE v BETWEEN -1 AND 2 AND c <> 'a'",
    "SELECT k FROM h WHERE c = 'a' AND d < DATE '2010-01-04'",
    "SELECT a.k, b.k FROM h a, h b WHERE a.k = b.k AND a.v < b.v",
    "SELECT a.k, b.c FROM h a, h b WHERE a.c = b.c AND b.v >= a.v AND b.d >= a.d",
    "SELECT a.k FROM h a, h b WHERE b.v BETWEEN a.v AND 3 AND b.k = 1",
    "SELECT k FROM h WHERE v > NULL",
    "SELECT k FROM h WHERE k = 1 AND v <> 0",
]
# a hash probe with a period stab under an open read window: a point-free
# filter waives the versions it rejects
WINDOWED = [
    "SELECT v FROM h WHERE k = {k} AND vb <= {p} AND {p} < ve AND v > 0",
    "SELECT v FROM h WHERE k = {k} AND vb <= {p} AND {p} < ve AND c = 'a'",
    "SELECT v FROM h WHERE k = {k} AND vb <= {p} AND {p} < ve",
]
SEQUENCED = [
    "SELECT k, v FROM s WHERE v > 0",
    "SELECT k FROM s WHERE v BETWEEN -1 AND 2 AND c <> 'a'",
    "SELECT a.k, b.k FROM s a, s b WHERE a.k = b.k AND a.v < b.v",
    "SELECT a.k FROM s a, s b, s c WHERE a.k = c.k AND a.v <= b.v",
    "SELECT k FROM s WHERE c = 'a  ' AND v > NULL",
]


def day(offset):
    return offset if offset is Null else Date(BASE + offset)


def build(rows) -> TemporalStratum:
    stratum = TemporalStratum()
    db = stratum.db
    db.execute("CREATE TABLE h (k INTEGER, v FLOAT, c CHAR(3), d DATE, vb DATE, ve DATE)")
    db.catalog.get_table("h").declare_interval("vb", "ve")
    stratum.create_temporal_table(
        "CREATE TABLE s (k INTEGER, v FLOAT, c CHAR(3), begin_time DATE, end_time DATE)"
    )
    db.insert_rows("h", [list(row[:3]) + [day(x) for x in row[3:]] for row in rows])
    db.insert_rows("s", [
        list(row[:3]) + [day(row[3]), day(9 if row[4] is Null else row[4] + 1)]
        for row in rows if row[3] is not Null
    ])
    return stratum


def run_all(stratum) -> list:
    """Every statement's rows (or error), the narrowed window, the
    counter deltas and each engine level's rows in / out."""
    db = stratum.db
    seen = []
    for sql in ENGINE:
        before = [db.obs.value(name) for name in COUNTERS]
        plan = build_select_plan(db.executor, parse_statement(sql))
        try:
            rows = plan.run(db.executor, None, True).rows
        except SqlError as exc:
            rows = type(exc)
        levels = [
            (level.rows_in, level.rows_out)
            for pipeline in (plan.pipeline, *plan.variants.values())
            for level in pipeline.levels
        ]
        seen.append((sql, rows, levels, [db.obs.value(n) - b for n, b in zip(COUNTERS, before)]))
    for template in WINDOWED:
        for k in (0, 1):
            for p in (1, 3):
                sql = template.format(k=k, p=f"DATE '{Date(BASE + p).to_iso()}'")
                before = [db.obs.value(name) for name in COUNTERS]
                db.read_window = [BASE - 5, BASE + 20, BASE + p]
                try:
                    rows = db.execute(sql).rows
                    window = db.read_window
                finally:
                    db.read_window = None
                seen.append((sql, rows, window, [db.obs.value(n) - b for n, b in zip(COUNTERS, before)]))
    for sql in SEQUENCED:
        before = [db.obs.value(name) for name in COUNTERS]
        result = stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '2010-01-12'] " + sql, SlicingStrategy.MAX
        )
        seen.append((sql, result.rows, [db.obs.value(n) - b for n, b in zip(COUNTERS, before)]))
    return seen


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_h)
def test_plans_count_what_the_closure_path_counts(rows):
    generated = run_all(build(rows))
    with closure_path():
        closures = run_all(build(rows))
    for mine, theirs in zip(generated, closures):
        assert mine == theirs, mine[0]


# what ``run_all`` counts on the fixed history below, per statement: an
# engine statement's levels' (rows in, out) or a windowed one's window left
# (days from BASE), then the COUNTERS' deltas.  The values were counted by
# the pipeline of per-level closure steps the generated plan function
# replaced: a reference that does not share the generated counting code,
# as the closure path above does.
PINNED = [
    ([(6, 4)], [6, 2, 0, 0, 0]),
    ([(6, 1)], [6, 5, 0, 0, 0]),
    ([(4, 2)], [4, 2, 0, 0, 0]),
    ([(6, 6), (18, 6)], [24, 12, 0, 0, 0]),
    ([(6, 6), (17, 5)], [23, 12, 0, 0, 0]),
    ([(4, 4), (24, 7)], [28, 17, 0, 0, 0]),
    ([(6, 0)], [6, 6, 0, 0, 0]),
    ([(4, 3)], [4, 1, 0, 0, 0]),
    ([0, 2, 1], [1, 0, 0, 0, 0]),
    ([2, 20, 3], [0, 0, 0, 1, 0]),
    ([0, 3, 1], [2, 1, 2, 2, 0]),
    ([3, 5, 3], [3, 1, 2, 1, 0]),
    ([-5, 20, 1], [1, 1, 1, 0, 0]),
    ([-5, 20, 3], [0, 0, 1, 1, 0]),
    ([0, 2, 1], [2, 1, 1, 2, 0]),
    ([3, 4, 3], [3, 0, 1, 1, 0]),
    ([0, 2, 1], [1, 0, 0, 0, 0]),
    ([2, 20, 3], [0, 0, 0, 1, 0]),
    ([1, 2, 1], [2, 0, 0, 2, 0]),
    ([3, 4, 3], [3, 0, 0, 1, 0]),
    (None, [11, 2, 0, 0, 1]),
    (None, [11, 4, 0, 0, 1]),
    (None, [16, 0, 0, 0, 1]),
    (None, [21, 0, 0, 0, 1]),
    (None, [11, 5, 0, 0, 1]),
]


def test_the_counters_are_exercised():
    """On one fixed history every counter the comparison holds moves, and
    each statement counts what the pinned reference counted."""
    rows = [
        (1, 2.5, "a", 0, 0, 9), (1, -1.5, "b", 1, 1, 3), (1, NAN, "a  ", 2, 3, 5),
        (0, 1, Null, 3, 0, 2), (2, INF, "a", Null, 2, 9), (1, 0, "a", 5, 2, 4),
    ]
    seen = run_all(build(rows))
    totals = [sum(entry[-1][i] for entry in seen) for i in range(len(COUNTERS))]
    assert all(totals), dict(zip(COUNTERS, totals))
    counted = [
        (None if len(entry) == 3 else entry[2] if isinstance(entry[2][0], tuple)
         else [end - BASE for end in entry[2]], entry[-1])
        for entry in seen
    ]
    for (sql, *_), mine, pinned in zip(seen, counted, PINNED, strict=True):
        assert mine == pinned, sql
    with closure_path():
        assert run_all(build(rows)) == seen

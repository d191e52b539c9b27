"""MAX's constant-period join, as the planner aligns it.

A routine-free sequenced SELECT runs as MAX's transformed statement
(``FROM taupsm_cp cp, …`` with every temporal table stabbed at
``cp.begin_time``), and the planner joins it in one aligned pass
(``planner._Alignment``): each stabbed level is aligned onto the sorted
period begins, an equality between two later levels keys the later one,
any other later level is keyless, and a level without a period is alive
in every period.  Each shape below pins which levels are which.

The join's work must track its output, not ``periods × cross product``:
on a keyed join every matched pair yields at least one result row and
nothing is left for a residual to reject.  The counts repeat exactly, so
a nested loop cannot come back unnoticed behind a timing threshold.
Every shape's rows are those of MAX's statement run one period at a time
by the nested-loop plan (the reference executor's nested loop on the
small tables), in order.
"""

import pytest

from repro.sqlengine import planner
from repro.sqlengine.parser import parse_statement
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.constant_periods import materialize_constant_periods

from tests.reference_executor import installed

MAX = SlicingStrategy.MAX
JOIN = (
    "SELECT i.id, ia.author_id FROM item i, item_author ia"
    " WHERE i.id = ia.item_id AND i.price > 50"
)
SEQUENCED = "VALIDTIME [DATE '2010-03-01', DATE '2011-03-01'] " + JOIN


def raw(stratum, sql, strategy=MAX):
    result = stratum.execute(sql, strategy=strategy)
    return list(result.columns), [list(row) for row in result.rows]


def reference(stratum, sql):
    """The rows of MAX's statement on the reference executor: a nested
    loop per period, no index, no alignment."""
    with installed(stratum.db):
        return raw(stratum, sql)


def per_period(stratum, sql):
    """MAX's statement run once per constant period, the period a
    literal: each run plans to the nested loop (stab probes, hash keys),
    and the periods' rows are concatenated in period order.  The first
    period whose run raises raises."""
    db = stratum.db
    prepared = stratum.prepare(parse_statement(sql), MAX)
    for cp_table, tables in prepared.candidate.cp_requirements.items():
        materialize_constant_periods(db, tables, stratum.registry, prepared.context, cp_table)
    statement = prepared.candidate.statement
    columns = db.executor.plan(statement, None).columns
    text = statement.to_sql()
    assert text.count("FROM taupsm_cp cp, ") == 1
    text = text.replace("FROM taupsm_cp cp, ", "FROM ")
    rows = []
    for begin, end in [row[:2] for row in db.catalog.get_table("taupsm_cp").rows]:
        at = text.replace("cp.begin_time", f"DATE '{begin.to_iso()}'").replace(
            "cp.end_time", f"DATE '{end.to_iso()}'"
        )
        assert db.executor.plan(parse_statement(at), None).pipeline.alignment is None
        rows += [list(row) for row in db.query(at).rows]
    return columns, rows


def join_counters(db):
    return tuple(
        db.obs.value(f"engine.join.{name}")
        for name in ("probes", "matches", "keyless_levels")
    )


def max_plan(stratum, sql):
    """MAX's engine plan of the sequenced ``sql`` (run first, so that
    its constant-period table exists)."""
    stratum.execute(sql, strategy=MAX)
    return stratum.db.executor.plan(stratum.transform(sql).statement, None)


def plan_shape(plan) -> list:
    """Per level after the constant periods: its alias, whether it is
    aligned (stabbed at ``cp.begin_time``) or alive in every period, and
    whether it is keyed, keyless or the first of the join."""
    alignment = plan.pipeline.alignment
    assert alignment is not None
    assert plan.pipeline.levels[0].node.name == "taupsm_cp"
    return [
        (
            level.node.key,
            "aligned" if level.period is not None else "every period",
            "keyed" if level.access[1] else "keyless" if level.pos > 1 else "first",
        )
        for level in alignment.levels[1:]
    ]


def test_item_author_join_work_is_bounded_by_its_result(small_dataset):
    stratum = small_dataset.stratum
    db = stratum.db
    plan = max_plan(stratum, SEQUENCED)
    assert plan_shape(plan) == [("i", "aligned", "first"), ("ia", "aligned", "keyed")]
    # nothing is left to check per matched combination
    assert plan.pipeline.alignment.leaf is None
    assert not plan.pipeline.residual

    runs = []
    for _ in range(2):
        before = join_counters(db)
        aligned = db.obs.value("engine.join.aligned")
        result = stratum.execute(SEQUENCED, strategy=MAX)
        assert db.obs.value("engine.join.aligned") == aligned + 1
        runs.append(
            tuple(after - b for after, b in zip(join_counters(db), before))
            + (len(result.rows),)
        )
    probes, matches, keyless_levels, rows = runs[0]
    assert runs[1] == runs[0]
    assert rows > 0
    assert 0 < matches <= rows
    assert probes <= len(db.catalog.get_table("item"))
    assert keyless_levels == 0


# The join shapes (DS1-SMALL, CONTEXT): the statement, its (probes,
# matches, keyless_levels) and its plan shape
CONTEXT = "VALIDTIME [DATE '2010-03-01', DATE '2010-09-01'] "
SHAPES = {
    # a keyless middle level, then a composite key over both earlier levels
    # (an equality with a literal there would leave the aligned access:
    # test_aligned_access.py, test_a_literal_key_keeps_the_nested_loop)
    "three_sources_keyless_middle": (
        "SELECT i.id, a.author_id FROM item i, author a, item_author ia"
        " WHERE i.id = ia.item_id AND a.author_id = ia.author_id"
        " AND i.price > 60 AND a.country <> 'Canada'",
        (3480, 3608, 1),
        [("i", "aligned", "first"), ("a", "aligned", "keyless"),
         ("ia", "aligned", "keyed")],
    ),
    "composite_key": (
        "SELECT ia.item_id, ib.author_id FROM item_author ia, item_author ib"
        " WHERE ia.item_id = ib.item_id AND ib.author_id = ia.author_id",
        (96, 96, 0),
        [("ia", "aligned", "first"), ("ib", "aligned", "keyed")],
    ),
    "distinct_over_join": (
        "SELECT DISTINCT i.subject, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id",
        (159, 329, 0),
        [("i", "aligned", "first"), ("ia", "aligned", "keyed")],
    ),
    # a point-transformed nested subquery: the residual runs per period
    "residual_reads_cp": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id"
        " AND i.price >= (SELECT MAX(j.price) FROM item j WHERE j.id = i.id)",
        (159, 329, 0),
        [("i", "aligned", "first"), ("ia", "aligned", "keyed")],
    ),
    # ia.author_id = 5 is partial for the execution; the partial
    # conjunct before it is false on every combination
    "demoted_literal": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price + 0 < 0 AND ia.author_id = 5",
        (159, 329, 0),
        [("i", "aligned", "first"), ("ia", "aligned", "keyed")],
    ),
    "single_source": (
        "SELECT i.id, i.price FROM item i WHERE i.price > 50",
        (0, 0, 0),
        [("i", "aligned", "first")],
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_join_shape_equals_the_reference_and_its_counters(small_dataset, shape):
    """Each shape's raw rows are the reference's, its plan's levels are
    what it pins, and its join work is pinned."""
    stratum = small_dataset.stratum
    sql, expected, levels = SHAPES[shape]
    sql = CONTEXT + sql
    assert plan_shape(max_plan(stratum, sql)) == levels
    before = join_counters(stratum.db)
    rows = raw(stratum, sql)
    after = join_counters(stratum.db)
    assert tuple(a - b for a, b in zip(after, before)) == expected
    assert rows == per_period(stratum, sql)
    assert raw(stratum, sql, SlicingStrategy.AUTO) == rows
    assert stratum.last_strategy is MAX


def test_residual_reading_cp_runs_per_period(small_dataset):
    """Only a residual that may read the constant period runs per
    period; one that cannot runs once per combination."""
    stratum = small_dataset.stratum
    alignment = max_plan(stratum, CONTEXT + SHAPES["residual_reads_cp"][0]).pipeline.alignment
    assert alignment.mode == 2
    # i.price + 0 < 0 reads no period; in the plan's default pipeline
    # ia.author_id = 5 is a test of ia's own (its executions demote it)
    alignment = max_plan(stratum, CONTEXT + SHAPES["demoted_literal"][0]).pipeline.alignment
    assert alignment.mode == 1
    assert alignment.sieves[2] is not None


def test_a_non_temporal_level_is_alive_in_every_period():
    stratum = TemporalStratum()
    stratum.create_temporal_table(
        "CREATE TABLE f (k INTEGER, begin_time DATE, end_time DATE)"
    )
    stratum.db.execute("CREATE TABLE label (k INTEGER, name VARCHAR(8))")
    stratum.db.execute(
        "INSERT INTO f VALUES (1, DATE '2010-01-01', DATE '2010-03-01'),"
        " (2, DATE '2010-02-01', DATE '2010-04-01')"
    )
    stratum.db.execute("INSERT INTO label VALUES (1, 'one'), (2, 'two'), (1, 'uno')")
    for body, shape in (
        ("SELECT f.k, l.name FROM f, label l WHERE f.k = l.k",
         [("f", "aligned", "first"), ("l", "every period", "keyed")]),
        ("SELECT l.name, f.k FROM label l, f WHERE l.k = f.k",
         [("l", "every period", "first"), ("f", "aligned", "keyed")]),
    ):
        sql = "VALIDTIME [DATE '2010-01-01', DATE '2010-05-01'] " + body
        assert plan_shape(max_plan(stratum, sql)) == shape
        rows = raw(stratum, sql)
        # f 1 lives two periods with two names, f 2 two with one
        assert len(rows[1]) == 2 * 2 + 2 * 1
        assert rows == reference(stratum, sql)


def test_distinct_over_a_keyed_join_dedupes_within_each_period(small_dataset):
    """DISTINCT keeps the first occurrence per period: rows repeat across
    periods but never within one, and the same join without DISTINCT has
    repeats for it to remove."""
    stratum = small_dataset.stratum
    sql = CONTEXT + "SELECT DISTINCT i.subject FROM item i, item_author ia WHERE i.id = ia.item_id"
    columns, rows = raw(stratum, sql)
    assert (columns, rows) == per_period(stratum, sql)
    assert len({tuple(row) for row in rows}) == len(rows)
    assert len({tuple(row[:1]) for row in rows}) < len(rows)
    _, all_rows = raw(stratum, sql.replace("DISTINCT ", ""))
    assert len(all_rows) > len(rows)


def test_null_keys_are_neither_hashed_nor_probed():
    stratum = TemporalStratum()
    for name in ("f", "g"):
        stratum.create_temporal_table(
            f"CREATE TABLE {name} (k INTEGER, v INTEGER, begin_time DATE, end_time DATE)"
        )
    for name, keys in (("f", ("1", "NULL", "2")), ("g", ("1", "NULL", "NULL"))):
        for v, k in enumerate(keys):
            stratum.db.execute(
                f"INSERT INTO {name} VALUES ({k}, {v}, DATE '2010-01-01', DATE '2010-03-01')"
            )
    sql = CONTEXT.replace("2010-03-01", "2010-01-01") + (
        "SELECT f.v, g.v FROM f, g WHERE f.k = g.k"
    )
    before = join_counters(stratum.db)
    assert raw(stratum, sql) == reference(stratum, sql)
    after = join_counters(stratum.db)
    # the two non-NULL keys of f probe; only k = 1 matches
    assert tuple(a - b for a, b in zip(after, before)) == (2, 1, 0)


def test_routine_calls_keep_the_nested_loop():
    """A statement that calls a routine is not aligned: its calls are
    made once per combination and period, as the paper counts them."""
    from tests.conftest import GET_AUTHOR_NAME, make_bookstore

    stratum = make_bookstore()
    stratum.register_routine(GET_AUTHOR_NAME)
    sql = (
        "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
        " SELECT i.id, get_author_name(ia.author_id) AS name"
        " FROM item i, item_author ia WHERE i.id = ia.item_id"
    )
    aligned = stratum.db.obs.value("engine.join.aligned")
    rows = raw(stratum, sql)
    assert stratum.db.obs.value("engine.join.aligned") == aligned
    assert max_plan(stratum, sql).pipeline.alignment is None
    assert rows[1] and rows == reference(stratum, sql)


def test_generated_join_is_shared_by_shape_and_named(small_dataset, monkeypatch):
    """One code object per join shape, whatever the constants; its file
    name names the level count, the constant periods included."""
    made = []
    generate = planner._aligned_nest
    monkeypatch.setattr(
        planner, "_aligned_nest", lambda *shape: made.append(generate(*shape)) or made[-1]
    )
    stratum = small_dataset.stratum
    two_sources = SHAPES["distinct_over_join"][0]
    for sql in (
        two_sources,
        two_sources + " AND i.price > 10",  # a sieve test: the same join shape
        SHAPES["three_sources_keyless_middle"][0],
        SHAPES["single_source"][0],
    ):
        stratum.execute(CONTEXT + sql, strategy=MAX)
    assert made[0] is made[1]
    assert len({id(join) for join in made}) == 3
    assert [join.__code__.co_filename for join in made] == [
        "<aligned join 3>", "<aligned join 3>", "<aligned join 4>", "<aligned join 2>",
    ]

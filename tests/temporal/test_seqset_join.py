"""SEQ-SET's interval join: its work bound and its generated loop nests.

The join's work must track its output, not ``periods × cross product``:
on a keyed join every matched pair yields at least one result row and
nothing is left for a residual to reject.  The counts repeat exactly,
so a nested loop cannot come back unnoticed behind a timing threshold.

The join runs one loop nest generated per plan shape
(``seqset._join_nest``); each shape below is checked against MAX's raw
rows with its probe / match / keyless-level counts pinned.
"""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.temporal import SlicingStrategy, TemporalStratum, seqset
from repro.temporal.seqset import compile_seqset

JOIN = (
    "SELECT i.id, ia.author_id FROM item i, item_author ia"
    " WHERE i.id = ia.item_id AND i.price > 50"
)
SEQUENCED = "VALIDTIME [DATE '2010-03-01', DATE '2011-03-01'] " + JOIN


def raw(stratum, sql, strategy):
    result = stratum.execute(sql, strategy=strategy)
    return list(result.columns), [list(row) for row in result.rows]


def join_counters(db):
    return tuple(
        db.obs.value(f"stratum.seqset.join.{name}")
        for name in ("probes", "matches", "keyless_levels")
    )


def test_item_author_join_work_is_bounded_by_its_result(small_dataset):
    stratum = small_dataset.stratum
    db = stratum.db
    plan = compile_seqset(db, stratum.registry, parse_statement(SEQUENCED))
    assert all(source.keys for source in plan.sources[1:])  # every level a hash join
    # nothing is left to check per matched combination
    assert plan.root.filters == plan.root.residual_conjuncts == 0

    runs = []
    for _ in range(2):
        before = join_counters(db)
        result = stratum.execute(SEQUENCED, strategy=SlicingStrategy.SEQSET)
        assert stratum.last_strategy is SlicingStrategy.SEQSET
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


# The join shapes SEQ-SET's generated loop nest is checked on (DS1-SMALL,
# CONTEXT): the statement and its (probes, matches, keyless_levels)
CONTEXT = "VALIDTIME [DATE '2010-03-01', DATE '2010-09-01'] "
SHAPES = {
    # a keyless middle level, then a composite key over both earlier sources
    "three_sources_keyless_middle": (
        "SELECT i.id, a.author_id FROM item i, author a, item_author ia"
        " WHERE i.id = ia.item_id AND a.author_id = ia.author_id"
        " AND i.price > 60 AND a.country = 'Canada'",
        (534, 470, 1),
    ),
    "composite_key": (
        "SELECT ia.item_id, ib.author_id FROM item_author ia, item_author ib"
        " WHERE ia.item_id = ib.item_id AND ib.author_id = ia.author_id",
        (96, 96, 0),
    ),
    "distinct_over_join": (
        "SELECT DISTINCT i.subject, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id",
        (159, 329, 0),
    ),
    # a point-transformed nested subquery: the residual runs per period
    "residual_reads_cp": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id"
        " AND i.price >= (SELECT MAX(j.price) FROM item j WHERE j.id = i.id)",
        (159, 329, 0),
    ),
    # ia.author_id = 5 is partial for the execution; the partial
    # conjunct before it is false on every combination
    "demoted_literal": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price + 0 < 0 AND ia.author_id = 5",
        (159, 329, 0),
    ),
    "single_source": (
        "SELECT i.id, i.price FROM item i WHERE i.price > 50",
        (0, 0, 0),
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_join_shape_equals_max_and_its_counters(small_dataset, shape):
    """Each shape's raw rows are MAX's, and its join work is pinned."""
    stratum = small_dataset.stratum
    sql, expected = SHAPES[shape]
    sql = CONTEXT + sql
    reference = raw(stratum, sql, SlicingStrategy.MAX)
    before = join_counters(stratum.db)
    assert raw(stratum, sql, SlicingStrategy.SEQSET) == reference
    assert stratum.last_strategy is SlicingStrategy.SEQSET
    assert stratum.last_fallback is None
    after = join_counters(stratum.db)
    assert tuple(a - b for a, b in zip(after, before)) == expected


def test_distinct_over_a_keyed_join_dedupes_within_each_period(small_dataset):
    """DISTINCT keeps the first occurrence per period: rows repeat across
    periods but never within one, and the same join without DISTINCT has
    repeats for it to remove."""
    stratum = small_dataset.stratum
    sql = CONTEXT + "SELECT DISTINCT i.subject FROM item i, item_author ia WHERE i.id = ia.item_id"
    columns, rows = raw(stratum, sql, SlicingStrategy.SEQSET)
    assert (columns, rows) == raw(stratum, sql, SlicingStrategy.MAX)
    assert len({tuple(row) for row in rows}) == len(rows)
    assert len({tuple(row[:1]) for row in rows}) < len(rows)
    _, all_rows = raw(stratum, sql.replace("DISTINCT ", ""), SlicingStrategy.SEQSET)
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
    assert raw(stratum, sql, SlicingStrategy.SEQSET) == raw(stratum, sql, SlicingStrategy.MAX)
    after = join_counters(stratum.db)
    # the two non-NULL keys of f probe; only k = 1 matches
    assert tuple(a - b for a, b in zip(after, before)) == (2, 1, 0)


def test_generated_join_is_shared_by_shape_and_named(small_dataset, monkeypatch):
    """One code object per join shape, whatever the constants; its file
    name names the source count."""
    made = []
    generate = seqset._join_nest
    monkeypatch.setattr(
        seqset, "_join_nest", lambda *shape: made.append(generate(*shape)) or made[-1]
    )
    stratum = small_dataset.stratum
    two_sources = SHAPES["distinct_over_join"][0]
    for sql in (
        two_sources,
        two_sources + " AND i.price > 10",  # a sieve test: the same join shape
        SHAPES["three_sources_keyless_middle"][0],
        SHAPES["single_source"][0],
    ):
        stratum.execute(CONTEXT + sql, strategy=SlicingStrategy.SEQSET)
        assert stratum.last_strategy is SlicingStrategy.SEQSET
    assert made[0] is made[1]
    assert len({id(join) for join in made}) == 3
    assert [join.__code__.co_filename for join in made] == [
        "<seqset join 2>", "<seqset join 2>", "<seqset join 3>", "<seqset join 1>",
    ]

"""Differential fuzzing of MAX's aligned constant-period join.

A routine-free sequenced SELECT runs as MAX's transformed statement, and
the planner aligns its constant-period join in one pass.  On every shape
the aligned rows must be the reference executor's *raw* rows — its
nested loop per period, without index or alignment: order, duplicates,
fragmentation, column names.  Two generators drive this, each query its
own test so that a failure shrinks over one statement:

* Hypothesis version histories × the routine-free query family
  (selection, join, self-join, DISTINCT), under MAX and AUTO;
* the same histories × fourteen join shapes (keys of every kind, a
  keyless level, a non-temporal level, a residual and a projection that
  read the constant period).

Each test first runs the one history that holds every period shape the
generator draws (``test_fuzz_sequenced.EVERY_SHAPE_FACT``), so a broken
join reports at once, without a search to shrink.

Golden EXPLAIN snapshots pin how the aligned levels render.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.temporal import SlicingStrategy

from tests.conftest import GET_AUTHOR_NAME, make_bookstore
from tests.integration.test_fuzz_sequenced import (
    EVERY_SHAPE_DIM,
    EVERY_SHAPE_FACT,
    NAMES,
    QUERIES,
)
from tests.oracle.test_corpus import build_stratum, sequenced, versions
from tests.obs.test_explain import check_golden
from tests.reference_executor import installed

MAX = SlicingStrategy.MAX


def raw(result):
    """Rows exactly as delivered: order and duplicates preserved."""
    return (list(result.columns), [list(row) for row in result.rows])


def aligned_equals_reference(stratum, query: str) -> list:
    """MAX's rows of ``query`` taken by the aligned join, checked against
    the reference executor's; returns the keyless levels it joined."""
    db = stratum.db
    sql = sequenced(query)
    aligned = db.obs.value("engine.join.aligned")
    keyless = db.obs.value("engine.join.keyless_levels")
    result = raw(stratum.execute(sql, strategy=MAX))
    assert db.obs.value("engine.join.aligned") == aligned + 1, query
    with installed(db):
        assert raw(stratum.execute(sql, strategy=MAX)) == result, query
    return db.obs.value("engine.join.keyless_levels") - keyless


@pytest.mark.parametrize("query", QUERIES, ids=NAMES)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(fact=EVERY_SHAPE_FACT, dim=EVERY_SHAPE_DIM)
@given(fact=versions, dim=versions)
def test_random_histories_family_is_aligned_as_the_reference(query, fact, dim):
    """Covered shapes: the aligned pass is row-identical to the nested
    loop, and AUTO takes it through rule (s)."""
    stratum = build_stratum(fact, dim)
    aligned_equals_reference(stratum, query)
    sql = sequenced(query)
    assert raw(stratum.execute(sql)) == raw(stratum.execute(sql, strategy=MAX))
    assert stratum.last_strategy is MAX


# (query, every level after the first hash-keyed?)
JOIN_QUERIES = {
    # NULL keys on either side, duplicates, CHAR(4) = blank-padded CHAR(8)
    "keyed": ("SELECT f.entity, f.val, d.tag FROM fact f, dim d"
              " WHERE f.entity = d.entity", True),
    "flipped": ("SELECT f.entity, d.tag FROM fact f, dim d WHERE d.entity = f.entity", True),
    "int_float_key": ("SELECT f.entity, d.entity FROM fact f, dim d WHERE f.val = d.weight", True),
    # composite key, one part per orientation
    "composite_key": ("SELECT f.val, d.tag FROM fact f, dim d"
                      " WHERE f.entity = d.entity AND d.weight = f.val", True),
    "chain3": ("SELECT f.entity, d.tag, g.val FROM fact f, dim d, fact g"
               " WHERE f.entity = d.entity AND d.weight = g.val", True),
    # temporal ⋈ non-temporal, either FROM order
    "non_temporal_inner": ("SELECT f.entity, l.name FROM fact f, label l WHERE f.val = l.val", True),
    "non_temporal_first": ("SELECT l.name, f.entity FROM label l, fact f WHERE l.val = f.val", True),
    # self-join under two aliases, key plus a test per combination
    "self_join": ("SELECT a.entity, b.val FROM fact a, fact b"
                  " WHERE a.entity = b.entity AND a.val < b.val", True),
    # DISTINCT over a join (per period)
    "distinct": ("SELECT DISTINCT f.entity, d.tag FROM fact f, dim d"
                 " WHERE f.entity = d.entity", True),
    # a residual reading a cp-dependent nested subquery: per period
    "residual_reads_cp": ("SELECT f.entity, d.tag FROM fact f, dim d WHERE f.entity = d.entity"
                          " AND f.val >= (SELECT MAX(g.val) FROM fact g WHERE g.entity = f.entity)",
                          True),
    # a cp-dependent projection
    "projection_reads_cp": ("SELECT f.entity, (SELECT COUNT(*) FROM dim g WHERE g.entity = f.entity)"
                            " AS n FROM fact f, dim d WHERE f.entity = d.entity", True),
    # equalities sort_key must not take: an expression side, classes apart
    "expression_side": ("SELECT f.entity, d.tag FROM fact f, dim d WHERE f.val + 0 = d.weight", False),
    "class_mismatch": ("SELECT f.entity, d.tag FROM fact f, dim d"
                       " WHERE f.entity = d.entity AND f.entity <> d.tag", True),
    # no equi-key at all: the same join code under no key
    "keyless": ("SELECT f.entity, d.tag FROM fact f, dim d WHERE f.val < d.weight", False),
}


@pytest.mark.parametrize("name", list(JOIN_QUERIES))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(fact=EVERY_SHAPE_FACT, dim=EVERY_SHAPE_DIM)
@given(fact=versions, dim=versions)
def test_random_histories_join_equals_the_reference_raw(name, fact, dim):
    """The aligned interval hash join is row-identical to the nested loop
    per period on every key shape."""
    query, keyed = JOIN_QUERIES[name]
    keyless = aligned_equals_reference(build_stratum(fact, dim), query)
    assert (keyless == 0) is keyed, query


class TestGoldenSeqSetExplain:
    """Pin the EXPLAIN renderings: the aligned levels of MAX's plan, and
    a routine-bearing statement's per-period plan.  Each statement runs
    once first, so that its constant-period table exists to bind."""

    @pytest.fixture
    def stratum(self):
        s = make_bookstore()
        s.register_routine(GET_AUTHOR_NAME)
        return s

    @staticmethod
    def explain(stratum, sql, strategy=SlicingStrategy.AUTO):
        stratum.execute(sql, strategy=strategy)
        return stratum.execute("EXPLAIN " + sql, strategy=strategy).text()

    def test_plan_tree(self, stratum):
        text = self.explain(
            stratum,
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT i.title, ia.author_id FROM item i, item_author ia"
            " WHERE i.id = ia.item_id AND i.price > 10.0",
            MAX,
        )
        assert "Sort taupsm_cp AS cp on cp.begin_time" in text
        assert (
            "Align item_author AS ia on i.id = ia.item_id (begin_time/end_time):"
            " alive at cp.begin_time" in text
        )
        check_golden("seqset_join_plan", text)

    def test_keyless_level_renders_nested(self, stratum):
        # a total comparison across two levels is no key: it is tested
        # on every matched combination, ahead of the residual
        text = self.explain(
            stratum,
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT a.first_name, i.title FROM author a, item i"
            " WHERE a.first_name < i.title",
            MAX,
        )
        assert "Align item AS i (begin_time/end_time): alive at cp.begin_time\n" in text
        assert "per combination: filters: 1" in text

    def test_auto_rule_s(self, stratum):
        text = self.explain(
            stratum,
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT first_name FROM author WHERE author_id = 'a1'",
        )
        assert "rule s" in text
        check_golden("seqset_auto_rule_s", text)

    def test_fallback_decision(self, stratum):
        """A statement that calls a routine keeps the per-period loop."""
        text = self.explain(
            stratum,
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT get_author_name('a1') AS name FROM author",
            MAX,
        )
        assert "(one evaluation per period)" in text
        assert "Align" not in text
        check_golden("seqset_fallback", text)

"""Differential fuzzing of SEQ-SET against MAX.

SEQ-SET's contract is stronger than snapshot equivalence: on every
covered statement it must reproduce MAX's *raw* rows — order,
duplicates, fragmentation, column names — and on every uncovered
statement it must fall back to MAX transparently (recording why).
Three generators drive this:

* Hypothesis version histories × the routine-free query family
  (selection, join, self-join, DISTINCT) — raw-row identity;
* the routine-bearing query — transparent fallback with identical
  results;
* the full 16-query τPSM suite — every query invokes a routine, so all
  of them must take the fallback and still match MAX exactly.

Golden EXPLAIN snapshots pin the plan shape (``TemporalAlign`` /
``IntervalJoin`` nodes) and the fallback decision line.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.taubench import ALL_QUERIES
from repro.temporal import SlicingStrategy

from tests.conftest import GET_AUTHOR_NAME, make_bookstore
from tests.integration.test_fuzz_sequenced import FN_QUERY, QUERIES
from tests.oracle.test_corpus import build_stratum, sequenced, versions
from tests.obs.test_explain import check_golden
from tests.reference_executor import installed

BEGIN, END = "2010-02-01", "2010-03-01"


def raw(result):
    """Rows exactly as delivered: order and duplicates preserved."""
    if isinstance(result, list):  # CALL loops yield one result per slice
        return [raw(r) for r in result]
    return (list(result.columns), [list(row) for row in result.rows])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fact=versions, dim=versions, query_index=st.integers(0, len(QUERIES) - 1))
def test_random_histories_seqset_equals_max_raw(fact, dim, query_index):
    """Covered shapes: the set-oriented pass is row-identical to MAX."""
    stratum = build_stratum(fact, dim)
    sql = sequenced(QUERIES[query_index])
    reference = raw(stratum.execute(sql, strategy=SlicingStrategy.MAX))
    result = raw(stratum.execute(sql, strategy=SlicingStrategy.SEQSET))
    assert stratum.last_strategy is SlicingStrategy.SEQSET
    assert stratum.last_fallback is None
    assert result == reference, QUERIES[query_index]
    # AUTO routes the same routine-free statements through rule (s)
    auto = raw(stratum.execute(sql, strategy=SlicingStrategy.AUTO))
    assert stratum.last_strategy is SlicingStrategy.SEQSET
    assert auto == reference


# (query, every join level hash-keyed?)
JOIN_QUERIES = [
    # NULL keys on either side, duplicates, CHAR(4) = blank-padded CHAR(8)
    ("SELECT f.entity, f.val, d.tag FROM fact f, dim d"
     " WHERE f.entity = d.entity", True),
    # flipped orientation
    ("SELECT f.entity, d.tag FROM fact f, dim d WHERE d.entity = f.entity", True),
    # INTEGER = FLOAT
    ("SELECT f.entity, d.entity FROM fact f, dim d WHERE f.val = d.weight", True),
    # composite key, one part per orientation
    ("SELECT f.val, d.tag FROM fact f, dim d"
     " WHERE f.entity = d.entity AND d.weight = f.val", True),
    # 3-way chain
    ("SELECT f.entity, d.tag, g.val FROM fact f, dim d, fact g"
     " WHERE f.entity = d.entity AND d.weight = g.val", True),
    # temporal ⋈ non-temporal, either FROM order
    ("SELECT f.entity, l.name FROM fact f, label l WHERE f.val = l.val", True),
    ("SELECT l.name, f.entity FROM label l, fact f WHERE l.val = f.val", True),
    # self-join under two aliases, key plus residual
    ("SELECT a.entity, b.val FROM fact a, fact b"
     " WHERE a.entity = b.entity AND a.val < b.val", True),
    # DISTINCT over a join (per period)
    ("SELECT DISTINCT f.entity, d.tag FROM fact f, dim d"
     " WHERE f.entity = d.entity", True),
    # residual reading a cp-dependent nested subquery: per-period evaluation
    ("SELECT f.entity, d.tag FROM fact f, dim d WHERE f.entity = d.entity"
     " AND f.val >= (SELECT MAX(g.val) FROM fact g WHERE g.entity = f.entity)",
     True),
    # a cp-dependent projection
    ("SELECT f.entity, (SELECT COUNT(*) FROM dim g WHERE g.entity = f.entity) AS n"
     " FROM fact f, dim d WHERE f.entity = d.entity", True),
    # equalities sort_key must not take: expression side, value-class mismatch
    ("SELECT f.entity, d.tag FROM fact f, dim d WHERE f.val + 0 = d.weight", False),
    ("SELECT f.entity, d.tag FROM fact f, dim d"
     " WHERE f.entity = d.entity AND f.entity <> d.tag", True),
    # no equi-key at all: the same join code under the single key ()
    ("SELECT f.entity, d.tag FROM fact f, dim d WHERE f.val < d.weight", False),
]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fact=versions, dim=versions)
def test_random_histories_join_family_equals_max_raw(fact, dim):
    """The interval hash join is row-identical to MAX's per-period
    nested loop on every key shape — the engine's, and the reference's
    full scans without an interval index."""
    stratum = build_stratum(fact, dim)
    db = stratum.db
    for query, keyed in JOIN_QUERIES:
        sql = sequenced(query)
        reference = raw(stratum.execute(sql, strategy=SlicingStrategy.MAX))
        keyless_before = db.obs.value("stratum.seqset.join.keyless_levels")
        result = raw(stratum.execute(sql, strategy=SlicingStrategy.SEQSET))
        assert stratum.last_strategy is SlicingStrategy.SEQSET, query
        assert stratum.last_fallback is None, query
        assert result == reference, query
        keyless = db.obs.value("stratum.seqset.join.keyless_levels") - keyless_before
        assert (keyless == 0) is keyed, query
        with installed(db):
            assert raw(stratum.execute(sql, strategy=SlicingStrategy.MAX)) == result, query


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fact=versions, dim=versions)
def test_random_histories_routine_query_falls_back(fact, dim):
    """Uncovered shapes: requesting SEQ-SET transparently re-runs under
    MAX, records the reason, and the rows are exactly MAX's."""
    stratum = build_stratum(fact, dim)
    sql = sequenced(FN_QUERY)
    reference = raw(stratum.execute(sql, strategy=SlicingStrategy.MAX))
    result = raw(stratum.execute(sql, strategy=SlicingStrategy.SEQSET))
    assert result == reference
    assert stratum.last_strategy is SlicingStrategy.MAX
    assert stratum.last_fallback is not None
    assert "value_of" in stratum.last_fallback


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_taubench_seqset_equals_max(query, small_dataset):
    """Every τPSM query invokes a routine, so under SEQ-SET all sixteen
    must take the MAX fallback — and stay row-identical to MAX."""
    query.install(small_dataset)
    sql = query.sequenced_sql(small_dataset, BEGIN, END)
    stratum = small_dataset.stratum
    reference = raw(stratum.execute(sql, strategy=SlicingStrategy.MAX))
    result = raw(stratum.execute(sql, strategy=SlicingStrategy.SEQSET))
    assert result == reference, query.name
    assert stratum.last_strategy is SlicingStrategy.MAX
    assert stratum.last_fallback is not None


class TestGoldenSeqSetExplain:
    """Pin the EXPLAIN renderings: the set-oriented plan tree and the
    compile-time fallback decision."""

    @pytest.fixture
    def stratum(self):
        s = make_bookstore()
        s.register_routine(GET_AUTHOR_NAME)
        return s

    def test_plan_tree(self, stratum):
        result = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT i.title, ia.author_id FROM item i, item_author ia"
            " WHERE i.id = ia.item_id AND i.price > 10.0",
            strategy=SlicingStrategy.SEQSET,
        )
        text = result.text()
        assert "IntervalJoin (2 inputs) [hash: i.id = ia.item_id] residual: 0" in text
        assert "TemporalAlign" in text
        check_golden("seqset_join_plan", text)

    def test_keyless_level_renders_nested(self, stratum):
        result = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT a.first_name, i.title FROM author a, item i"
            " WHERE a.first_name < i.title",
            strategy=SlicingStrategy.SEQSET,
        )
        assert (
            "IntervalJoin (2 inputs) [nested: no equi-key] residual: 1"
            in result.text()
        )

    def test_auto_rule_s(self, stratum):
        result = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT first_name FROM author WHERE author_id = 'a1'"
        )
        text = result.text()
        assert "rule s" in text
        check_golden("seqset_auto_rule_s", text)

    def test_fallback_decision(self, stratum):
        result = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT get_author_name('a1') AS name FROM author",
            strategy=SlicingStrategy.SEQSET,
        )
        text = result.text()
        assert "seqset: fallback to max" in text
        check_golden("seqset_fallback", text)

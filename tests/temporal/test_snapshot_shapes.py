"""Sequenced shapes whose answer depends on the rows of the whole
context, not of one snapshot: refused, or pinned as a known wrong answer.

``p(emp, sal)`` holds ``a`` (1) over [2010-01-01, 2010-06-01), ``b`` (2)
over [2010-03-01, 2011-01-01) and ``c`` (5) over the whole year, so the
context [2010-01-01, 2011-01-01) has three constant periods.  MAX
evaluates a query as one join with the constant-period table, which
puts every period's rows into one aggregate, one group and one LIMIT;
SEQ-SET and AUTO send these shapes to MAX.
"""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.errors import FeatureNotSupportedError
from repro.temporal.period import Period

CONTEXT = "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01'] "
JAN, MAR, JUN, NEXT = "2010-01-01", "2010-03-01", "2010-06-01", "2011-01-01"
LIMITED = CONTEXT + "SELECT emp FROM p ORDER BY emp LIMIT 1"
EVERY = [
    SlicingStrategy.MAX, SlicingStrategy.PERST,
    SlicingStrategy.SEQSET, SlicingStrategy.AUTO,
]
MAX_ROUTED = [SlicingStrategy.MAX, SlicingStrategy.SEQSET, SlicingStrategy.AUTO]
# today's answers are the ones the end-to-end benchmark's committed
# fingerprints hold, so the fix lands together with new fingerprints
KNOWN_WRONG = (
    "MAX's constant-period join aggregates and groups across periods; the"
    " seed-20120401 agg_365d / grp_365d fingerprints in"
    " benchmarks/e2e/expected/ hold today's answer"
)


@pytest.fixture
def stratum():
    stratum = TemporalStratum()
    stratum.create_temporal_table(
        "CREATE TABLE p (emp VARCHAR(4), sal INTEGER,"
        " begin_time DATE, end_time DATE)"
    )
    stratum.db.insert_rows("p", [
        [emp, sal, Date.from_iso(begin), Date.from_iso(end)]
        for emp, sal, begin, end in (
            ("a", 1, JAN, JUN), ("b", 2, MAR, NEXT), ("c", 5, JAN, NEXT),
        )
    ])
    return stratum


def answer(stratum, sql, strategy):
    return sorted(stratum.execute(CONTEXT + sql, strategy).coalesced())


@pytest.mark.parametrize("strategy", EVERY, ids=lambda s: s.value)
def test_limit_is_refused(stratum, strategy):
    """Each period's snapshot has its own first row (``a`` until June,
    then ``b``): a LIMIT over the whole context cannot say that."""
    for sql in (LIMITED, "EXPLAIN " + LIMITED):
        with pytest.raises(FeatureNotSupportedError, match="LIMIT") as refused:
            stratum.execute(sql, strategy)
        assert refused.value.sqlstate == "0A000"


@pytest.mark.parametrize("strategy", EVERY, ids=lambda s: s.value)
def test_limit_in_a_set_operation_arm_is_refused(stratum, strategy):
    stmt = parse_statement(
        CONTEXT + "SELECT emp FROM p WHERE sal < 2"
        " UNION SELECT emp FROM p WHERE sal > 1"
    )
    stmt.set_rhs.limit = 1
    with pytest.raises(FeatureNotSupportedError, match="LIMIT"):
        stratum.execute_ast(stmt, strategy)


def test_limit_in_a_subquery_is_evaluated_per_snapshot(stratum):
    result = answer(
        stratum,
        "SELECT emp FROM p WHERE sal = (SELECT q.sal FROM p q"
        " ORDER BY q.sal DESC LIMIT 1)",
        SlicingStrategy.MAX,
    )
    assert result == [(("c",), Period.from_iso(JAN, NEXT))]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KNOWN_WRONG)
@pytest.mark.parametrize("strategy", MAX_ROUTED, ids=lambda s: s.value)
def test_aggregate_per_period(stratum, strategy):
    assert answer(stratum, "SELECT COUNT(*), SUM(sal) FROM p", strategy) == [
        ((2, 6), Period.from_iso(JAN, MAR)),
        ((2, 7), Period.from_iso(JUN, NEXT)),
        ((3, 8), Period.from_iso(MAR, JUN)),
    ]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=KNOWN_WRONG)
@pytest.mark.parametrize("strategy", MAX_ROUTED, ids=lambda s: s.value)
def test_group_per_period(stratum, strategy):
    assert answer(
        stratum, "SELECT emp, COUNT(*) FROM p GROUP BY emp", strategy
    ) == [
        (("a", 1), Period.from_iso(JAN, JUN)),
        (("b", 1), Period.from_iso(MAR, NEXT)),
        (("c", 1), Period.from_iso(JAN, NEXT)),
    ]

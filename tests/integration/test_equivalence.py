"""§VII-B: every strategy is snapshot-equivalent to the timeslice oracle.

The third leg of the paper's validation: MAX, PERST, SEQ-SET and AUTO
each equal the conventional query on every timeslice (``tests/oracle``),
over a one-month context on DS1-SMALL and on the hot-spot dataset DS2.
"""

import pytest

from repro.taubench import ALL_QUERIES, build_dataset
from repro.temporal import SlicingStrategy

from tests.oracle import check

BEGIN, END = "2010-02-01", "2010-03-01"

APPLICABLE = [q for q in ALL_QUERIES if q.perst_applicable]


def check_strategies(dataset, query):
    query.install(dataset)
    sql = query.sequenced_sql(dataset, BEGIN, END)
    verdicts = check(dataset.stratum, sql, list(SlicingStrategy))
    assert verdicts == {s: "agrees" for s in SlicingStrategy}, query.name


@pytest.mark.parametrize("query", APPLICABLE, ids=lambda q: q.name)
def test_strategies_agree_ds1(query, small_dataset):
    check_strategies(small_dataset, query)


@pytest.fixture(scope="module")
def ds2_dataset():
    return build_dataset("DS2", "SMALL")


@pytest.mark.parametrize(
    "query",
    [q for q in APPLICABLE if q.name in ("q2", "q5", "q7", "q10", "q19")],
    ids=lambda q: q.name,
)
def test_strategies_agree_on_hot_spot_data(query, ds2_dataset):
    check_strategies(ds2_dataset, query)

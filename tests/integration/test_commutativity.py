"""§VII-B correctness: commutativity over the whole τPSM suite.

For every query and both slicing strategies, the sequenced result
timesliced at any granule must equal the conventional query evaluated on
the database's timeslice at that granule — the paper's validation
methodology, held to the timeslice oracle (``tests/oracle``) on
DS1-SMALL with a two-week context.
"""

import pytest

from repro.taubench import ALL_QUERIES
from repro.temporal import SlicingStrategy

from tests.oracle import check

BEGIN, END = "2010-02-10", "2010-02-24"


def _cases():
    for query in ALL_QUERIES:
        for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
            if strategy is SlicingStrategy.PERST and not query.perst_applicable:
                continue
            yield pytest.param(query, strategy, id=f"{query.name}-{strategy.value}")


@pytest.mark.parametrize("query,strategy", list(_cases()))
def test_commutativity(query, strategy, small_dataset):
    query.install(small_dataset)
    sql = query.sequenced_sql(small_dataset, BEGIN, END)
    verdicts = check(small_dataset.stratum, sql, [strategy])
    assert verdicts == {strategy: "agrees"}, query.name

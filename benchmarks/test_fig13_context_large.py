"""Figure 13: running time vs temporal-context length, DS1-LARGE.

The same sweep as Figure 12 on the ten-times-larger dataset.  The
paper's expectations, all checked in EXPERIMENTS.md: MAX grows roughly
linearly with context length; PERST stays near-flat except for the
per-period cursor queries (q7/q7b); q17b has no PERST timing anywhere.
"""

import pytest

from benchmarks.conftest import print_report
from benchmarks.paper import fig13_context_large, run_cell
from repro.taubench import get_query
from repro.temporal.stratum import SlicingStrategy


def test_fig13_series(benchmark):
    result = benchmark.pedantic(fig13_context_large, rounds=1, iterations=1)
    print_report(result.report)
    by_key = {(c.query, c.strategy, c.context_days): c for c in result.cells}
    # q17b is MAX-only everywhere (paper §VII-A2)
    q17b_perst = [
        c for c in result.cells if c.query == "q17b" and c.strategy == "perst"
    ]
    assert all(c.inapplicable for c in q17b_perst)
    # MAX grows with context length for the paper's running example
    q2_max = [
        by_key[("q2", "max", d)] for d in (1, 365)
        if ("q2", "max", d) in by_key
    ]
    if len(q2_max) == 2:
        assert q2_max[1].seconds > q2_max[0].seconds


@pytest.mark.parametrize("strategy", [SlicingStrategy.MAX, SlicingStrategy.PERST],
                         ids=["max", "perst"])
def test_fig13_q2_one_year_cell(benchmark, ds1_large, strategy):
    query = get_query("q2")
    query.install(ds1_large)

    def run():
        return run_cell(ds1_large, query, strategy, 365, warm=False)

    cell = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cell.ok and cell.rows > 0

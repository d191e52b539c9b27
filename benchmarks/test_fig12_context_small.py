"""Figure 12: running time vs temporal-context length, DS1-SMALL.

Regenerates the full MAX/PERST series for all sixteen queries over
contexts of one day, one week, one month and one year, prints the
series table plus the §VII-C class (A/B/C/D) of each query, and
benchmarks the paper's headline cells (q2 at one day and one year under
both strategies — the crossover the paper walks through numerically).
"""

import pytest

from benchmarks.conftest import print_report
from benchmarks.paper import fig12_context_small, run_cell
from repro.taubench import get_query
from repro.temporal.stratum import SlicingStrategy


def test_fig12_series(benchmark):
    result = benchmark.pedantic(fig12_context_small, rounds=1, iterations=1)
    print_report(result.report)
    ok_cells = [c for c in result.cells if c.ok]
    assert ok_cells, "figure 12 produced no measurable cells"
    assert all(c.rows > 0 for c in ok_cells)


@pytest.mark.parametrize("strategy", [SlicingStrategy.MAX, SlicingStrategy.PERST],
                         ids=["max", "perst"])
@pytest.mark.parametrize("days", [1, 365], ids=["1day", "1year"])
def test_fig12_q2_cell(benchmark, ds1_small, strategy, days):
    query = get_query("q2")
    query.install(ds1_small)

    def run():
        return run_cell(ds1_small, query, strategy, days, warm=False)

    cell = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cell.ok and cell.rows > 0

"""Figure 14: running time vs dataset size (SMALL / MEDIUM / LARGE).

DS1 at a fixed one-month context.  Expected shape: running times grow
with dataset size for both strategies (the paper saw two MAX exceptions
caused by DB2 plan changes, which an interpreter does not reproduce).
"""

from benchmarks.conftest import print_report
from benchmarks.paper import fig14_scalability


def test_fig14_series(benchmark):
    result = benchmark.pedantic(
        fig14_scalability, kwargs={"context_days": 30}, rounds=1, iterations=1
    )
    print_report(result.report)
    by_key = {(c.query, c.strategy, c.dataset): c for c in result.cells}
    # growth: LARGE at least as slow as SMALL for the headline query
    for strategy in ("max", "perst"):
        small = by_key.get(("q2", strategy, "SMALL"))
        large = by_key.get(("q2", strategy, "LARGE"))
        if small and large and small.ok and large.ok:
            assert large.seconds >= small.seconds * 0.5  # monotone modulo noise

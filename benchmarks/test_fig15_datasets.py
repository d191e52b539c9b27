"""Figure 15: data characteristics — DS1 vs DS2 vs DS3 (all SMALL).

DS1: weekly changes, uniform victims.  DS2: weekly, Gaussian hot spots.
DS3: daily changes (693 slices, same total change count).  Expected
shapes (paper §VII-E): DS1 ≈ DS2 overall; DS3 slower, dominated by the
slice count, especially for MAX; MAX on q2/q2b *faster* on DS2 because
those queries probe a cold (non-hot-spot) row with fewer versions.
"""

from benchmarks.conftest import print_report
from benchmarks.paper import fig15_data_characteristics


def test_fig15_series(benchmark):
    result = benchmark.pedantic(
        fig15_data_characteristics, kwargs={"context_days": 30},
        rounds=1, iterations=1,
    )
    print_report(result.report)
    by_key = {(c.query, c.strategy, c.dataset): c for c in result.cells}
    # the number of slices dominates MAX: DS3 slower than DS1 on q2
    ds1 = by_key.get(("q2", "max", "DS1"))
    ds3 = by_key.get(("q2", "max", "DS3"))
    if ds1 and ds3 and ds1.ok and ds3.ok:
        assert ds3.seconds > ds1.seconds

"""Ablation benchmark for a design choice DESIGN.md calls out: the
constant-period computation route.  The stratum precomputes cp natively
(sort + adjacent pairs); the paper's Figure-8 SQL is a quadratic
self-join with NOT EXISTS.  Timing both quantifies why the
precomputation lives in the stratum.
"""

import pytest

from benchmarks.conftest import print_report
from repro.temporal.constant_periods import (
    materialize_constant_periods,
    materialize_constant_periods_via_sql,
)


@pytest.mark.parametrize("route", ["native", "figure8-sql"])
def test_ablation_cp_route(benchmark, ds1_small, route):
    stratum = ds1_small.stratum
    context = ds1_small.context(90)
    tables = ["item", "item_author"]

    if route == "native":
        def run():
            return materialize_constant_periods(
                stratum.db, tables, stratum.registry, context, "cp_ablation"
            )
    else:
        def run():
            return materialize_constant_periods_via_sql(
                stratum.db, tables, stratum.registry, context, "cp_ablation"
            )

    count = benchmark.pedantic(run, rounds=1, iterations=1)
    assert count > 0
    print_report(f"constant periods via {route}: {count} periods")

"""§VII-B table: lines of SQL before and after each transformation.

The paper: the sixteen original queries totalled ~500 lines; maximal
slicing expanded them to ~1600 (≈3.2x) and per-statement slicing to
~2000 (≈4x).  We regenerate the per-query counts and check the
expansion ordering (original < MAX < PERST in total).
"""

from benchmarks.conftest import print_report
from benchmarks.paper import line_counts


def test_line_counts(benchmark):
    result = benchmark.pedantic(line_counts, rounds=1, iterations=1)
    print_report(result.report)
    lines = result.report.splitlines()
    total_line = next(line for line in lines if line.startswith("total"))
    parts = total_line.split()
    original, max_lines, perst_lines = int(parts[1]), int(parts[2]), int(parts[3])
    assert original < max_lines < perst_lines
    assert max_lines / original > 1.5  # substantial expansion, like the paper

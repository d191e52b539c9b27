"""§VII-F: how often PERST wins, and heuristic accuracy.

The paper reports PERST faster in ~70% of its 160 data points, with the
multi-faceted heuristic choosing the wrong strategy ~13% of the time.
We pool measured cells from a Figure-12-style sweep plus the Figure-15
datasets and evaluate the same heuristic over them.
"""

from benchmarks.conftest import print_report
from benchmarks.paper import (
    fig12_context_small,
    fig15_data_characteristics,
    heuristic_evaluation,
)


def test_heuristic_accuracy(benchmark):
    def run():
        cells = fig12_context_small().cells
        cells += fig15_data_characteristics(context_days=30).cells
        return heuristic_evaluation(cells)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(result.report)
    report = result.report
    assert "heuristic correct" in report
    # parse the correctness percentage and require better than chance
    correct_line = next(
        line for line in report.splitlines() if line.startswith("heuristic correct")
    )
    percent = int(correct_line.split("(")[1].split("%")[0])
    assert percent >= 50

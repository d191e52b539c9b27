"""MAX vs PERST: the crossover the performance study revolves around.

Runs the paper's q2 on the τPSM DS1-SMALL dataset across temporal
contexts from one day to one year, printing running time and routine
invocations for each strategy, plus what the §VII-F heuristic would
pick.  Expect MAX to win for the shortest contexts and PERST to win —
and stay nearly flat — as the context grows.

Run from the repository root:

    PYTHONPATH=src python -m examples.slicing_tradeoff
"""

from benchmarks.paper import run_cell
from repro.sqlengine.parser import parse_statement
from repro.taubench import build_dataset, get_query
from repro.temporal.heuristic import choose_strategy
from repro.temporal.stratum import SlicingStrategy

CONTEXTS = [1, 7, 30, 90, 365]

print("building DS1-SMALL ...")
dataset = build_dataset("DS1", "SMALL")
query = get_query("q2")
query.install(dataset)

header = (
    f"{'context':>8}  {'MAX s':>8}  {'PERST s':>8}"
    f"  {'MAX calls':>9}  {'PERST calls':>11}  {'winner':>6}  {'heuristic':>9}"
)
print()
print(header)
print("-" * len(header))
for days in CONTEXTS:
    cells = {}
    for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
        cells[strategy] = run_cell(dataset, query, strategy, days)
    max_cell = cells[SlicingStrategy.MAX]
    perst_cell = cells[SlicingStrategy.PERST]
    winner = "MAX" if max_cell.seconds <= perst_cell.seconds else "PERST"
    stmt = parse_statement(
        query.sequenced_sql(dataset, *dataset.context_bounds(days))
    )
    pick = choose_strategy(
        stmt, dataset.stratum, dataset.stratum.registry, dataset.context(days)
    )
    print(
        f"{days:>7}d  {max_cell.seconds:>8.3f}  {perst_cell.seconds:>8.3f}"
        f"  {max_cell.routine_calls:>9}  {perst_cell.routine_calls:>11}"
        f"  {winner:>6}  {pick.strategy.value:>9}"
    )

print()
print("MAX invokes the routine once per satisfying row per constant period;")
print("PERST's invocation count is independent of the context length —")
print("the cost asymmetry behind Figures 12 and 13.")

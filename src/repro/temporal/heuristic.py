"""The paper's §VII-F strategy-selection heuristic.

    "a query optimizer should choose [per-statement slicing] unless
     (a) the transformation rules don't work for PERST, …
     (b) cursors are required on a per-period basis by PERST *and* the
         data set is large, …
     (c) the query is on a small database *and* has a short temporal
         context."

The heuristic transforms nothing itself.  Whether PERST applies and
whether SEQ-SET covers the statement are questions it puts to
:meth:`TemporalStratum.candidate`, the stratum's one cached
transformation function — so deciding costs a transformation at most
once per statement text, and what it built is what then runs.

The thresholds below are calibration constants for this engine; the
paper leaves a cost model to future work (§VIII), and this engine has
none: these rules are its one strategy chooser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.temporal import analysis
from repro.temporal.period import Period
from repro.temporal.schema import TemporalRegistry

# Calibration constants (rows of temporal data / days of context).
# Calibrated against this engine's Figure-12/13 sweeps: the MAX/PERST
# crossover sits near one week here (the paper's DB2 saw it between one
# week and one month), and every τPSM size fits "small" for rule (c)
# while rule (b) needs only the LARGE datasets.
SMALL_DATABASE_ROWS = 20_000
LARGE_DATABASE_ROWS = 8_000
SHORT_CONTEXT_DAYS = 7


@dataclass(frozen=True)
class StrategyChoice:
    """The chosen strategy and why: the §VII-F ``rule`` that fired
    (empty when the caller named the strategy)."""

    strategy: "SlicingStrategy"  # noqa: F821 - resolved lazily
    rule: str
    reason: str

    def describe(self) -> str:
        """As EXPLAIN's ``strategy:`` line prints it."""
        why = f"rule {self.rule}: {self.reason}" if self.rule else self.reason
        return f"{self.strategy.value} ({why})"


def temporal_row_count(
    stmt: ast.Statement, db: Database, registry: TemporalRegistry
) -> int:
    """Total rows across the temporal tables the statement reaches."""
    names = analysis.reachable_temporal_tables(stmt, db.catalog, registry)
    return sum(len(db.catalog.get_table(name)) for name in names)


def choose_strategy(
    stmt: ast.Statement,
    stratum: "TemporalStratum",  # noqa: F821 - lazy type
    registry: TemporalRegistry,
    context: Period,
    data_rows: Optional[int] = None,
) -> StrategyChoice:
    """Apply the §VII-F heuristic (extended with the SEQ-SET rule) to a
    sequenced query along ``registry``'s dimension."""
    from repro.temporal.stratum import SlicingStrategy

    db = stratum.db
    # Rule (s), ahead of the paper's rules: a routine-free shape the
    # set-oriented plan covers never needs the per-period loop at all.
    # One pass beats both MAX and PERST — on a key-less join too, which
    # is a cross product under every strategy.
    if stratum.candidate("seqset", stmt, registry).applicable:
        return StrategyChoice(
            SlicingStrategy.SEQSET, "s",
            "routine-free statement covered by the set-oriented plan",
        )
    # Rule (a): can PERST transform this statement at all?
    perst = stratum.candidate("perst", stmt, registry, context)
    if not perst.applicable:
        return StrategyChoice(
            SlicingStrategy.MAX, "a", f"PERST inapplicable: {perst.reason}"
        )
    rows = data_rows if data_rows is not None else temporal_row_count(
        stmt, db, registry
    )
    if rows >= LARGE_DATABASE_ROWS and analysis.uses_per_period_cursors(
        stmt, db.catalog, registry
    ):
        return StrategyChoice(
            SlicingStrategy.MAX,
            "b",
            f"per-period cursors on a large data set ({rows} rows)",
        )
    if rows <= SMALL_DATABASE_ROWS and context.duration <= SHORT_CONTEXT_DAYS:
        return StrategyChoice(
            SlicingStrategy.MAX,
            "c",
            f"small database ({rows} rows) and short context"
            f" ({context.duration} days)",
        )
    return StrategyChoice(
        SlicingStrategy.PERST, "default", "PERST is faster in ~70% of cases"
    )

"""The paper's §VII-F strategy-selection heuristic.

    "a query optimizer should choose [per-statement slicing] unless
     (a) the transformation rules don't work for PERST, …
     (b) cursors are required on a per-period basis by PERST *and* the
         data set is large, …
     (c) the query is on a small database *and* has a short temporal
         context."

The heuristic transforms nothing itself.  Whether PERST applies, whether
SEQ-SET covers the statement and what shape its plan has are questions
it puts to :meth:`TemporalStratum.candidate`, the stratum's one cached
transformation function — so deciding costs a transformation at most
once per statement text, and what it built is what then runs.  Both
:func:`choose_strategy` (the rules) and :func:`choose_by_cost` (the
cost model) answer with a :class:`StrategyChoice`.

The thresholds below are calibration constants for this engine; the
paper's Section VIII notes a proper cost model is future work, and
:func:`estimate_costs` sketches one (it predicts relative cost from the
number of constant periods and expected routine invocations).
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
    """The chosen strategy and why: the §VII-F ``rule`` that fired (empty
    when the cost model chose, or the caller named the strategy) and,
    from the cost model, the estimate behind it."""

    strategy: "SlicingStrategy"  # noqa: F821 - resolved lazily
    rule: str
    reason: str
    estimate: Optional["CostEstimate"] = None

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
    # Rule (s), ahead of the paper's rules: a routine-free covered shape
    # whose every join is a hash join never needs the per-period loop at
    # all — one set-oriented pass beats both MAX and PERST, with the
    # cost model recording by how much (measured unit costs when the
    # registry has samples).  A key-less join level is a cross product
    # under every strategy, so there the cost model decides.
    seqset = stratum.candidate("seqset", stmt, registry)
    if seqset.applicable:
        if not seqset.plan.keyed:
            by_cost = choose_by_cost(stmt, stratum, registry, context)
            return StrategyChoice(
                by_cost.strategy, "cost", "key-less join: " + by_cost.reason
            )
        estimate = estimate_costs(
            stmt, db, registry, context, obs=db.obs, seqset_plan=seqset.plan
        )
        return StrategyChoice(
            SlicingStrategy.SEQSET,
            "s",
            "routine-free statement covered by the set-oriented plan"
            f" ({estimate.describe()})",
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


@dataclass(frozen=True)
class CostEstimate:
    """A coarse relative cost model (paper §VIII future work).

    ``mode`` records which calibration produced the numbers:
    ``"static"`` (the hand-calibrated constants below) or ``"measured"``
    (per-slice / per-row timings observed by the metrics registry).

    ``seqset_cost`` is filled only when the caller asked for it (the
    statement is inside the SEQ-SET fragment); ``None`` otherwise.
    """

    max_cost: float
    perst_cost: float
    mode: str = "static"
    seqset_cost: Optional[float] = None

    @property
    def prefers_perst(self) -> bool:
        return self.perst_cost < self.max_cost

    def describe(self) -> str:
        """The numbers as EXPLAIN and the rule rationale print them."""
        text = f"cost model [{self.mode}]:"
        if self.seqset_cost is not None:
            text += f" seqset={self.seqset_cost:.4f}"
        return text + f" max={self.max_cost:.4f} perst={self.perst_cost:.4f}"


def choose_by_cost(
    stmt: ast.Statement,
    stratum: "TemporalStratum",  # noqa: F821 - lazy type
    registry: TemporalRegistry,
    context: Period,
) -> StrategyChoice:
    """Cheapest applicable strategy under :func:`estimate_costs`
    (measured unit costs when the registry has samples); no estimate
    when only MAX applies."""
    from repro.temporal.stratum import SlicingStrategy

    db = stratum.db
    perst = stratum.candidate("perst", stmt, registry, context)
    seqset = stratum.candidate("seqset", stmt, registry)
    if not perst.applicable and not seqset.applicable:
        return StrategyChoice(
            SlicingStrategy.MAX, "",
            f"cost model; PERST inapplicable: {perst.reason}",
        )
    estimate = estimate_costs(
        stmt, db, registry, context, obs=db.obs, seqset_plan=seqset.plan
    )
    candidates = [(estimate.max_cost, 0, SlicingStrategy.MAX)]
    if perst.applicable:
        candidates.append((estimate.perst_cost, 1, SlicingStrategy.PERST))
    if seqset.applicable:
        candidates.append((estimate.seqset_cost, 2, SlicingStrategy.SEQSET))
    return StrategyChoice(min(candidates)[2], "", estimate.describe(), estimate)


# Static per-unit costs (arbitrary units; only ratios matter).
STATIC_PER_INVOCATION_ROW = 0.01
STATIC_PERIOD_OVERHEAD = 0.05
STATIC_PER_ROW = 0.02
STATIC_CURSOR_PER_PERIOD_ROW = 0.002
# SEQ-SET touches each combination of its plan once (a row, for a single
# table) through vectorized kernels and hash probes, and pays a small
# per-period emission step.
STATIC_SEQSET_PER_ROW = 0.004
STATIC_SEQSET_PERIOD_OVERHEAD = 0.005
# Arbitration bands between the two calibrations.  The timer means
# aggregate over *all* statements a database has executed, not just the
# one being costed, so a measured gap can be an artifact of workload
# mix (on the τPSM workload a predicted ~1.9× gap from cross-query
# means corresponded to a measured-wall-clock ratio of 1.08).  The
# rule: a measurement within MEASURED_TIE_BAND is inconclusive and the
# static numbers stand; a conclusive measurement wins unless it
# *contradicts* a static comparison that is itself confident (ratio of
# at least STATIC_CONFIDENT_BAND) — a confident prior resists a noisy
# contradiction, an unconfident one defers to measurement.
MEASURED_TIE_BAND = 1.5
STATIC_CONFIDENT_BAND = 1.5


def estimate_costs(
    stmt: ast.Statement,
    db: Database,
    registry: TemporalRegistry,
    context: Period,
    obs: Optional["MetricsRegistry"] = None,  # noqa: F821 - lazy type
    mode: str = "auto",
    seqset_plan: Optional["SeqSetPlan"] = None,  # noqa: F821 - lazy type
) -> CostEstimate:
    """Predict relative MAX/PERST cost from data statistics.

    MAX's dominant term is (#constant periods × per-invocation work);
    PERST's is one pass over the data plus, when per-period cursors are
    involved, (#constant periods × auxiliary-table traffic).  Given a
    compiled ``seqset_plan``, SEQ-SET is priced over that plan's own
    shape (:meth:`SeqSetPlan.combinations`) plus a per-period step.

    ``mode`` selects the calibration:

    * ``"static"`` — the hand-calibrated constants above.
    * ``"measured"`` / ``"auto"`` — replace the constants with this
      engine's observed per-slice (``stratum.max.slice_seconds``) and
      per-row (``stratum.perst.row_seconds``) means from ``obs``.  The
      *structure* of the model is unchanged; only the unit costs come
      from measurement.  Falls back to the static constants when the
      registry has no samples yet, when the measured costs land inside
      :data:`MEASURED_TIE_BAND` of each other, or when a conclusive
      measurement contradicts a static comparison that is confident by
      :data:`STATIC_CONFIDENT_BAND` (the means aggregate the whole
      workload, so a contradiction of a confident prior is more likely
      workload-mix artifact than signal).
    """
    from repro.temporal.constant_periods import compute_constant_periods

    tables = analysis.reachable_temporal_tables(stmt, db.catalog, registry)
    periods = len(compute_constant_periods(db, tables, registry, context))
    rows = temporal_row_count(stmt, db, registry)
    cursors = analysis.uses_per_period_cursors(stmt, db.catalog, registry)
    per_invocation = max(rows, 1) * STATIC_PER_INVOCATION_ROW
    max_cost = periods * per_invocation + periods * STATIC_PERIOD_OVERHEAD
    perst_cost = max(rows, 1) * STATIC_PER_ROW
    if cursors:
        perst_cost += periods * max(rows, 1) * STATIC_CURSOR_PER_PERIOD_ROW

    def seqset_term(chosen_mode: str) -> Optional[float]:
        """SEQ-SET's cost over the plan's own shape: the measured
        per-combination mean when the chosen calibration is measured
        and its timer has samples, else the static constants."""
        if seqset_plan is None:
            return None
        combinations = max(seqset_plan.combinations(db), 1)
        if chosen_mode == "measured" and obs is not None:
            seqset_mean = obs.mean("stratum.seqset.row_seconds")
            if seqset_mean is not None and seqset_mean > 0.0:
                return combinations * seqset_mean
        return (
            combinations * STATIC_SEQSET_PER_ROW
            + periods * STATIC_SEQSET_PERIOD_OVERHEAD
        )

    if mode == "static" or obs is None:
        return CostEstimate(
            max_cost=max_cost, perst_cost=perst_cost,
            seqset_cost=seqset_term("static"),
        )
    slice_mean = obs.mean("stratum.max.slice_seconds")
    row_mean = obs.mean("stratum.perst.row_seconds")
    if slice_mean is None or row_mean is None or row_mean <= 0.0:
        # no observations yet for one side: stay with the static model
        return CostEstimate(
            max_cost=max_cost, perst_cost=perst_cost,
            seqset_cost=seqset_term("static"),
        )
    measured_max = periods * slice_mean
    measured_perst = max(rows, 1) * row_mean
    if cursors:
        # keep the static model's cursor-penalty *ratio*, expressed in
        # the measured per-row unit
        penalty_ratio = STATIC_CURSOR_PER_PERIOD_ROW / STATIC_PER_ROW
        measured_perst += periods * max(rows, 1) * row_mean * penalty_ratio
    smaller = min(measured_max, measured_perst)
    if smaller <= 0.0 or max(measured_max, measured_perst) <= smaller * MEASURED_TIE_BAND:
        # inconclusive: keep the static numbers (and their decision)
        return CostEstimate(
            max_cost=max_cost, perst_cost=perst_cost,
            seqset_cost=seqset_term("static"),
        )
    static_confident = max(max_cost, perst_cost) >= (
        min(max_cost, perst_cost) * STATIC_CONFIDENT_BAND
    )
    decisions_disagree = (measured_perst < measured_max) != (perst_cost < max_cost)
    if static_confident and decisions_disagree:
        return CostEstimate(
            max_cost=max_cost, perst_cost=perst_cost,
            seqset_cost=seqset_term("static"),
        )
    return CostEstimate(
        max_cost=measured_max, perst_cost=measured_perst, mode="measured",
        seqset_cost=seqset_term("measured"),
    )

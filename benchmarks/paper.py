"""The paper's performance study (§VII), regenerated.

One function per artifact:

* :func:`line_counts` — §VII-B's code-expansion observation (original ≈30
  lines per query; MAX ≈100; PERST ≈125);
* :func:`fig12_context_small` — Figure 12: MAX vs PERST over temporal
  context length {1 day, 1 week, 1 month, 1 year} on DS1-SMALL;
* :func:`fig13_context_large` — Figure 13: the same on DS1-LARGE;
* :func:`fig14_scalability` — Figure 14: dataset size sweep S/M/L;
* :func:`fig15_data_characteristics` — Figure 15: DS1/DS2/DS3-SMALL
  (slice count and change distribution);
* :func:`heuristic_evaluation` — §VII-F: fraction of cells PERST wins
  and the accuracy of the multi-faceted heuristic.

Each runs a grid of (query, strategy, dataset, context) cells.
Wall-clock time is environment-specific; routine invocations are the
machine-independent cost driver the paper's analysis is based on, so
every cell records both.

Environment knobs (the figures can take a while at full scale):
``TAUPSM_QUERIES=q2,q7`` restricts the query set;
``TAUPSM_MAX_CONTEXT=30`` caps the longest context;
``TAUPSM_FIG13_SIZE=MEDIUM`` shrinks Figure 13's dataset.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.sqlengine.lexer import tokenize
from repro.sqlengine.parser import parse_statement
from repro.taubench.datasets import Dataset, build_dataset
from repro.taubench.queries import ALL_QUERIES, QuerySpec, get_query
from repro.temporal.errors import PerStatementInapplicableError, TemporalError
from repro.temporal.heuristic import choose_strategy
from repro.temporal.max_slicing import transform_query_max
from repro.temporal.perst_slicing import PerstTransformer
from repro.temporal.stratum import SlicingStrategy

CONTEXTS = [1, 7, 30, 365]  # day, week, month, year (paper §VII-C)
_STRATEGIES = [SlicingStrategy.MAX, SlicingStrategy.PERST]


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    """One measurement cell."""

    query: str
    strategy: str
    dataset: str
    context_days: int
    seconds: float = 0.0
    rows: int = 0
    routine_calls: int = 0
    inapplicable: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.inapplicable


def run_cell(
    dataset: Dataset,
    query: QuerySpec,
    strategy: SlicingStrategy,
    context_days: int,
    warm: bool = True,
) -> CellResult:
    """Execute one cell; returns its time, rows and routine invocations.

    ``warm`` runs the statement once untimed first (the paper measured
    with a warm cache to focus on CPU cost).
    """
    cell = CellResult(
        query=query.name,
        strategy=strategy.value,
        dataset=dataset.spec.key,
        context_days=context_days,
    )
    if strategy is SlicingStrategy.PERST and not query.perst_applicable:
        cell.inapplicable = True
        return cell
    query.install(dataset)
    sequenced = query.sequenced_sql(
        dataset, *dataset.context_bounds(context_days)
    )
    stratum = dataset.stratum
    try:
        if warm:
            stratum.execute(sequenced, strategy=strategy)
        db = stratum.db
        calls_before = db.obs.sum_prefix(db.stats.ROUTINE_CALLS)
        started = time.perf_counter()
        result = stratum.execute(sequenced, strategy=strategy)
        cell.seconds = time.perf_counter() - started
        cell.rows = (
            sum(len(r) for r in result) if isinstance(result, list) else len(result)
        )
        cell.routine_calls = db.obs.sum_prefix(db.stats.ROUTINE_CALLS) - calls_before
    except PerStatementInapplicableError:
        cell.inapplicable = True
    except TemporalError as exc:
        cell.error = str(exc)
    return cell


def run_grid(
    dataset: Dataset,
    queries: list[QuerySpec],
    strategies: list[SlicingStrategy],
    contexts: list[int],
    warm: bool = True,
) -> list[CellResult]:
    """The full cross product of cells for one dataset."""
    cells: list[CellResult] = []
    for query in queries:
        for days in contexts:
            for strategy in strategies:
                cells.append(run_cell(dataset, query, strategy, days, warm=warm))
    return cells


# ---------------------------------------------------------------------------
# reporting: the series tables and the §VII-C query classes
# ---------------------------------------------------------------------------

_APPROACH_TOLERANCE = 1.35  # "approaches or meets" band for class D


def classify_query(
    query: str,
    dataset: str,
    contexts: list[int],
    cells: list[CellResult],
) -> Optional[str]:
    """Class A/B/C/D for one query's context sweep, or None (no PERST).

    * **A** — PERST always faster;
    * **B** — MAX faster for short contexts, PERST overtakes (crossover);
    * **C** — MAX always faster;
    * **D** — MAX starts faster and PERST approaches/meets it at the
      longest context (within a tolerance band).
    """
    lookup = {(c.query, c.strategy, c.dataset, c.context_days): c for c in cells}
    pairs = []
    for days in contexts:
        max_cell = lookup.get((query, "max", dataset, days))
        perst_cell = lookup.get((query, "perst", dataset, days))
        if max_cell is None or perst_cell is None or not max_cell.ok:
            return None
        if not perst_cell.ok:
            return None
        pairs.append((max_cell.seconds, perst_cell.seconds))
    perst_faster = [p < m for m, p in pairs]
    if all(perst_faster):
        return "A"
    if not any(perst_faster):
        final_max, final_perst = pairs[-1]
        if final_perst <= final_max * _APPROACH_TOLERANCE:
            return "D"
        return "C"
    # a crossover exists, in whichever order
    return "B"


def classify_queries(
    queries: list[str], dataset: str, contexts: list[int], cells: list[CellResult]
) -> dict[str, Optional[str]]:
    return {
        q: classify_query(q, dataset, contexts, cells) for q in queries
    }


def format_series_table(
    cells: list[CellResult],
    row_key: str = "query",
    column_key: str = "context_days",
    metric: str = "seconds",
    title: str = "",
) -> str:
    """An aligned text table: rows × columns of one metric, both strategies.

    Mirrors the figures: one row per query, one column per x-axis value,
    each cell showing ``MAX/PERST``.
    """
    rows = sorted({getattr(c, row_key) for c in cells}, key=_natural)
    columns = sorted({getattr(c, column_key) for c in cells}, key=_natural)
    lookup: dict[tuple, CellResult] = {}
    for cell in cells:
        lookup[(getattr(cell, row_key), getattr(cell, column_key), cell.strategy)] = cell
    header = [row_key] + [f"{column_key}={c}" for c in columns]
    widths = [max(8, len(h)) for h in header]
    lines = []
    if title:
        lines.append(title)
    body: list[list[str]] = []
    for row in rows:
        formatted = [str(row)]
        for column in columns:
            max_cell = lookup.get((row, column, "max"))
            perst_cell = lookup.get((row, column, "perst"))
            formatted.append(
                f"{_fmt(max_cell, metric)}/{_fmt(perst_cell, metric)}"
            )
        body.append(formatted)
    for formatted in body:
        for i, value in enumerate(formatted):
            widths[i] = max(widths[i], len(value))
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for formatted in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(formatted, widths)))
    lines.append("")
    lines.append(f"cells show MAX/PERST {metric}; 'n/a' = transformation inapplicable")
    return "\n".join(lines)


def _fmt(cell: Optional[CellResult], metric: str) -> str:
    if cell is None:
        return "?"
    if cell.inapplicable:
        return "n/a"
    if cell.error:
        return "ERR"
    value = getattr(cell, metric)
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _natural(value):
    if isinstance(value, int):
        return (0, value, "")
    text = str(value)
    digits = "".join(ch for ch in text if ch.isdigit())
    return (1, int(digits) if digits else 0, text)


# ---------------------------------------------------------------------------
# Figures 12-15
# ---------------------------------------------------------------------------


def _selected_queries() -> list[QuerySpec]:
    names = os.environ.get("TAUPSM_QUERIES")
    if not names:
        return list(ALL_QUERIES)
    return [get_query(n.strip()) for n in names.split(",") if n.strip()]


def _selected_contexts() -> list[int]:
    cap = int(os.environ.get("TAUPSM_MAX_CONTEXT", "365"))
    return [c for c in CONTEXTS if c <= cap]


@dataclass
class ExperimentResult:
    """Cells plus a printable report."""

    name: str
    cells: list[CellResult]
    report: str

    def __str__(self) -> str:
        return self.report


def _context_sweep(dataset: Dataset, title: str, name: str) -> ExperimentResult:
    queries = _selected_queries()
    contexts = _selected_contexts()
    cells = run_grid(dataset, queries, _STRATEGIES, contexts)
    table = format_series_table(
        cells, row_key="query", column_key="context_days", title=title
    )
    calls_table = format_series_table(
        cells,
        row_key="query",
        column_key="context_days",
        metric="routine_calls",
        title="routine invocations (machine-independent cost driver, §V/§VI):"
        " MAX grows with the constant-period count, PERST does not",
    )
    classes = classify_queries(
        [q.name for q in queries], dataset.spec.key, contexts, cells
    )
    class_lines = ["", "query classes (paper §VII-C):"]
    for query_name, klass in classes.items():
        class_lines.append(
            f"  {query_name}: {klass if klass else 'n/a (MAX only)'}"
        )
    report = table + "\n\n" + calls_table + "\n" + "\n".join(class_lines)
    return ExperimentResult(name=name, cells=cells, report=report)


def fig12_context_small() -> ExperimentResult:
    """Figure 12: varying temporal context on DS1-SMALL."""
    dataset = build_dataset("DS1", "SMALL")
    return _context_sweep(
        dataset,
        "Figure 12 — running time (s) vs temporal context, DS1-SMALL",
        "fig12",
    )


def fig13_context_large() -> ExperimentResult:
    """Figure 13: varying temporal context on DS1-LARGE."""
    size = os.environ.get("TAUPSM_FIG13_SIZE", "LARGE")
    dataset = build_dataset("DS1", size)
    return _context_sweep(
        dataset,
        f"Figure 13 — running time (s) vs temporal context, DS1-{size}",
        "fig13",
    )


def fig14_scalability(context_days: int = 30) -> ExperimentResult:
    """Figure 14: running time vs dataset size (S/M/L), fixed context."""
    queries = _selected_queries()
    cells: list[CellResult] = []
    for size in ["SMALL", "MEDIUM", "LARGE"]:
        dataset = build_dataset("DS1", size)
        for cell in run_grid(dataset, queries, _STRATEGIES, [context_days]):
            cell.dataset = size  # display key: the size is the x-axis
            cells.append(cell)
    report = format_series_table(
        cells,
        row_key="query",
        column_key="dataset",
        title=f"Figure 14 — running time (s) vs dataset size, DS1,"
        f" {context_days}-day context",
    )
    return ExperimentResult(name="fig14", cells=cells, report=report)


def fig15_data_characteristics(context_days: int = 30) -> ExperimentResult:
    """Figure 15: DS1 (weekly/uniform), DS2 (weekly/Gaussian), DS3
    (daily/uniform), all SMALL."""
    queries = _selected_queries()
    cells: list[CellResult] = []
    for dataset_name in ["DS1", "DS2", "DS3"]:
        dataset = build_dataset(dataset_name, "SMALL")
        for cell in run_grid(dataset, queries, _STRATEGIES, [context_days]):
            cell.dataset = dataset_name
            cells.append(cell)
    report = format_series_table(
        cells,
        row_key="query",
        column_key="dataset",
        title=f"Figure 15 — running time (s) vs data characteristics,"
        f" SMALL, {context_days}-day context",
    )
    return ExperimentResult(name="fig15", cells=cells, report=report)


# ---------------------------------------------------------------------------
# §VII-B line counts
# ---------------------------------------------------------------------------


def line_counts() -> ExperimentResult:
    """§VII-B: code size before/after each transformation.

    The paper counted lines of hand-formatted SQL files; formatting is
    not comparable across a machine renderer, so we measure *tokens*
    (formatting-independent) on the originals and both transformations,
    all produced by the same renderer.
    """

    def tokens_of(sql: str) -> int:
        return len(tokenize(sql)) - 1  # drop EOF

    dataset = build_dataset("DS1", "SMALL")
    stratum = dataset.stratum
    lines = ["§VII-B — SQL tokens per query (original → MAX → PERST)"]
    header = f"{'query':6s} {'original':>9s} {'MAX':>7s} {'PERST':>7s}"
    lines.append(header)
    lines.append("-" * len(header))
    totals = [0, 0, 0]
    for query in ALL_QUERIES:
        query.install(dataset)
        original = sum(tokens_of(r) for r in query.routines)
        original += tokens_of(query.conventional_sql(dataset))
        stmt = parse_statement(
            query.sequenced_sql(dataset, "2010-02-01", "2010-03-01")
        )
        max_result = transform_query_max(
            stmt, stratum.db.catalog, stratum.registry, "taupsm_cp"
        )
        max_tokens = tokens_of(max_result.to_sql())
        try:
            perst_result = PerstTransformer(
                stratum.db.catalog, stratum.registry
            ).transform(stmt)
            perst_tokens = tokens_of(perst_result.to_sql())
        except TemporalError:  # outside PERST's fragment (q8, q17b)
            perst_tokens = 0
        lines.append(
            f"{query.name:6s} {original:9d} {max_tokens:7d} {perst_tokens:7d}"
        )
        totals[0] += original
        totals[1] += max_tokens
        totals[2] += perst_tokens
    lines.append("-" * len(header))
    lines.append(f"{'total':6s} {totals[0]:9d} {totals[1]:7d} {totals[2]:7d}")
    lines.append(
        f"expansion: MAX {totals[1] / totals[0]:.2f}x,"
        f" PERST {totals[2] / totals[0]:.2f}x over the original"
    )
    lines.append(
        "(paper, in lines of formatted SQL: ~500 original grew to ~1600 MAX"
        " / ~2000 PERST, i.e. ~3.2x / ~4x; PERST is the larger expansion)"
    )
    return ExperimentResult(name="line_counts", cells=[], report="\n".join(lines))


# ---------------------------------------------------------------------------
# §VII-F heuristic accuracy
# ---------------------------------------------------------------------------


def heuristic_evaluation(cells: list[CellResult]) -> ExperimentResult:
    """Evaluate the §VII-F heuristic against measured cells.

    For every (query, dataset, context) with both strategies measured,
    compare the heuristic's pick to the actually-faster strategy.
    """
    by_key: dict[tuple, dict[str, CellResult]] = {}
    for cell in cells:
        by_key.setdefault(
            (cell.query, cell.dataset, cell.context_days), {}
        )[cell.strategy] = cell
    datasets: dict[str, Dataset] = {}
    total = perst_wins = correct = near_tie_ok = 0
    rule_counts: dict[str, int] = {}
    for (query_name, dataset_key, context_days), pair in sorted(by_key.items()):
        max_cell = pair.get("max")
        perst_cell = pair.get("perst")
        if max_cell is None or not max_cell.ok:
            continue
        total += 1
        if perst_cell is None or not perst_cell.ok:
            actual = "max"
            near_tie = False
        else:
            actual = "perst" if perst_cell.seconds < max_cell.seconds else "max"
            slower = max(perst_cell.seconds, max_cell.seconds)
            faster = min(perst_cell.seconds, max_cell.seconds)
            near_tie = slower <= faster * 1.25
        if actual == "perst":
            perst_wins += 1
        dataset = datasets.get(dataset_key)
        if dataset is None:
            name, _, size = dataset_key.partition(".")
            if name not in ("DS1", "DS2", "DS3"):
                name, size = "DS1", dataset_key if dataset_key in (
                    "SMALL", "MEDIUM", "LARGE"
                ) else "SMALL"
            dataset = build_dataset(name, size or "SMALL")
            datasets[dataset_key] = dataset
        query = get_query(query_name)
        query.install(dataset)
        stmt = parse_statement(
            query.sequenced_sql(dataset, *dataset.context_bounds(context_days))
        )
        choice = choose_strategy(
            stmt, dataset.stratum, dataset.stratum.registry,
            dataset.context(context_days),
        )
        rule_counts[choice.rule] = rule_counts.get(choice.rule, 0) + 1
        if choice.strategy.value == actual:
            correct += 1
            near_tie_ok += 1
        elif near_tie:
            near_tie_ok += 1  # picked the "wrong" side of a near-tie
    report_lines = [
        "§VII-F — heuristic evaluation",
        f"cells measured:        {total}",
        f"PERST faster:          {perst_wins}"
        f" ({100.0 * perst_wins / total:.0f}%)" if total else "no cells",
        f"heuristic correct:     {correct}"
        f" ({100.0 * correct / total:.0f}%)" if total else "",
        f"heuristic wrong:       {total - correct}"
        f" ({100.0 * (total - correct) / total:.0f}%)" if total else "",
        f"correct or near-tie:   {near_tie_ok}"
        f" ({100.0 * near_tie_ok / total:.0f}%)"
        "  (misses where the strategies were within 25%)" if total else "",
        f"rule firings:          {dict(sorted(rule_counts.items()))}",
        "(paper: PERST faster in ~70% of 160 points; heuristic wrong ~13%)",
    ]
    return ExperimentResult(
        name="heuristic", cells=cells, report="\n".join(report_lines)
    )

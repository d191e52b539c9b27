"""Result formatting and the paper's query classification (§VII-C).

Classes over a temporal-context sweep:

* **A** — PERST always faster;
* **B** — MAX faster for short contexts, PERST overtakes (crossover);
* **C** — MAX always faster;
* **D** — MAX starts faster and PERST approaches/meets it at the longest
  context (within a tolerance band).
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import CellResult

_APPROACH_TOLERANCE = 1.35  # "approaches or meets" band for class D


def cell_lookup(cells: list[CellResult]) -> dict[tuple, CellResult]:
    return {
        (c.query, c.strategy, c.dataset, c.context_days): c for c in cells
    }


def classify_query(
    query: str,
    dataset: str,
    contexts: list[int],
    cells: list[CellResult],
) -> Optional[str]:
    """Class A/B/C/D for one query's context sweep, or None (no PERST)."""
    lookup = cell_lookup(cells)
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
    if perst_faster[-1] and not perst_faster[0]:
        return "B"
    # mixed in other orders: closest match is B (a crossover exists)
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


def trace_summary(db) -> dict:
    """A JSON-able view of one database's observability state.

    Emitted into the ``BENCH_*.json`` files (and uploaded as a CI
    artifact) so a benchmark run carries the metrics that produced it:
    slice counts, per-slice/per-invocation timing means, rows
    scanned/written by source, cache traffic, undo-log depth.
    """
    # recompute the storage gauge so the payload carries the columnar
    # footprint of the run that produced it
    db.refresh_storage_gauges()
    summary = {
        "stats": db.stats.snapshot(),
        "metrics": db.obs.snapshot(),
    }
    if db.durability is not None:
        summary["wal"] = db.durability.state()
    return summary


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

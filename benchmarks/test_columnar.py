"""Columnar ablation: vectorized filter evaluation vs the row path.

A planner-matched WHERE compiles to column-batch kernels that run over
the table's :class:`~repro.sqlengine.storage.ColumnStore` and return a
selection vector; ``vectorized_filtering_enabled`` switches the scan
back to the interpreted per-row predicate.  The sweep crosses context
length with dataset size — the paper's §VII axes — and emits
``BENCH_columnar.json``.

Both arms run with the interval index disabled so the measured delta is
attributable to the filter evaluation strategy alone (with the index on,
most candidates are pre-pruned before either path sees them).

The same file also records the durability byte volume: each table's
rows JSON-encoded per-row (the legacy checkpoint/WAL layout) vs
transposed through :func:`~repro.sqlengine.wal.encode_rows_columnar`
(the current layout).

Knobs for quicker runs:

* ``TAUPSM_COLUMNAR_SIZES=SMALL`` — skip the LARGE dataset (CI smoke);
* ``TAUPSM_MAX_CONTEXT=30`` — drop the one-year contexts.
"""

import json
import os
from pathlib import Path

from benchmarks.conftest import print_report
from repro.bench.harness import run_cell
from repro.bench.reporting import trace_summary
from repro.sqlengine.wal import encode_row, encode_rows_columnar
from repro.taubench.queries import QuerySpec
from repro.temporal.stratum import SlicingStrategy

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_columnar.json"
ROUNDS = 2  # report the best of N to damp scheduler noise

# the PERST algebraic fragment substitutes literal context bounds into
# the overlap predicate, so the scan's whole conjunct set — the user's
# selective price predicate plus the two date bounds — compiles to
# kernels (consumes_all) and the vectorized path applies
FILTER_QUERY = QuerySpec(
    name="columnar_filter",
    feature="sequenced selective scan with a fully kernelized WHERE",
    routines=(),
    build_query=lambda dataset: (
        "SELECT i.id, i.title FROM item i WHERE i.price >= 114.0"
    ),
)


def _sizes():
    raw = os.environ.get("TAUPSM_COLUMNAR_SIZES", "SMALL,LARGE")
    return [size.strip().upper() for size in raw.split(",") if size.strip()]


def _contexts():
    cap = int(os.environ.get("TAUPSM_MAX_CONTEXT", "365"))
    return [days for days in (30, 365) if days <= cap]


def _measure(dataset, days, vectorized):
    """Best-of-ROUNDS cell plus the vectorized counter deltas."""
    db = dataset.stratum.db
    saved_vec = db.vectorized_filtering_enabled
    saved_idx = db.interval_indexing_enabled
    db.vectorized_filtering_enabled = vectorized
    db.interval_indexing_enabled = False
    batches_before = db.obs.value("engine.vectorized_batches")
    pruned_before = db.obs.value("engine.vectorized_rows_pruned")
    try:
        best = None
        for _ in range(ROUNDS):
            cell = run_cell(
                dataset, FILTER_QUERY, SlicingStrategy.PERST, days, warm=True
            )
            assert cell.ok, cell.error
            if best is None or cell.seconds < best.seconds:
                best = cell
        batches = db.obs.value("engine.vectorized_batches") - batches_before
        pruned = db.obs.value("engine.vectorized_rows_pruned") - pruned_before
        return best, batches, pruned
    finally:
        db.vectorized_filtering_enabled = saved_vec
        db.interval_indexing_enabled = saved_idx


def _cell_dict(cell):
    return {
        "seconds": cell.seconds,
        "rows": cell.rows,
        "rows_scanned": cell.rows_scanned,
        "statements": cell.statements,
    }


def _durability_bytes(dataset):
    """Per-row vs transposed JSON volume over the dataset's tables."""
    row_total = 0
    columnar_total = 0
    for table in dataset.stratum.db.catalog.tables():
        if table.temporary:
            continue
        row_total += len(
            json.dumps(
                [encode_row(row) for row in table.rows], separators=(",", ":")
            )
        )
        columnar_total += len(
            json.dumps(encode_rows_columnar(table.rows), separators=(",", ":"))
        )
    return row_total, columnar_total


def test_columnar_ablation(benchmark, request):
    datasets = [
        (size, request.getfixturevalue(f"ds1_{size.lower()}"))
        for size in _sizes()
    ]
    contexts = _contexts()
    cells = []
    lines = []
    for size, dataset in datasets:
        for days in contexts:
            vec, batches, pruned = _measure(dataset, days, True)
            row, row_batches, _ = _measure(dataset, days, False)
            # evaluation strategy only: identical answer either way
            assert vec.rows == row.rows
            assert vec.rows_scanned == row.rows_scanned
            assert batches > 0 and pruned > 0
            assert row_batches == 0
            cells.append(
                {
                    "dataset": f"DS1-{size}",
                    "context_days": days,
                    "vectorized": _cell_dict(vec),
                    "interpreted": _cell_dict(row),
                    "vectorized_batches": batches,
                    "rows_pruned": pruned,
                    "speedup": row.seconds / vec.seconds,
                }
            )
            lines.append(
                f"  DS1-{size:<5} {days:>3}d:"
                f"  vectorized {vec.seconds:.4f}s"
                f"  interpreted {row.seconds:.4f}s"
                f"  speedup {cells[-1]['speedup']:.2f}x"
                f"  ({pruned} rows pruned in {batches} batches)"
            )

    largest_size, largest_dataset = datasets[-1]
    largest_days = contexts[-1]
    benchmark.pedantic(
        lambda: _measure(largest_dataset, largest_days, True),
        rounds=1,
        iterations=1,
    )

    row_bytes, columnar_bytes = _durability_bytes(largest_dataset)
    db = largest_dataset.stratum.db
    payload = {
        "query": FILTER_QUERY.name,
        "strategy": "perst",
        "sizes": [size for size, _ in datasets],
        "contexts": contexts,
        "rounds": ROUNDS,
        "cells": cells,
        "checkpoint_bytes": {
            "dataset": f"DS1-{largest_size}",
            "per_row": row_bytes,
            "columnar": columnar_bytes,
            "ratio": columnar_bytes / row_bytes,
        },
        "bytes_resident": db.refresh_storage_gauges(),
        "trace_summary": trace_summary(db),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print_report(
        f"Sequenced PERST {FILTER_QUERY.name}, vectorized filtering on/off:\n"
        + "\n".join(lines)
        + f"\n  checkpoint bytes: {row_bytes} per-row ->"
        f" {columnar_bytes} columnar"
        f" ({payload['checkpoint_bytes']['ratio']:.2f}x)"
        + f"\n  -> {OUTPUT.name}"
    )
    # the speedup is printed, not gated: the CI smoke's largest cell is
    # 0.5 ms, where run-to-run noise is the size of the ratio; the
    # equality, batch-count and byte assertions are what must hold
    assert columnar_bytes < row_bytes

"""Interval-index ablation: sequenced MAX with and without scan pruning.

The per-period loop a sequenced MAX statement compiles to stabs each
temporal table once per constant period; with ``interval_indexing_enabled``
the executor serves each stab from the table's interval index instead of
re-scanning every row.  The sweep crosses context length (slice count)
with dataset size (rows per slice) — the two axes the paper's §VII
figures vary — and emits ``BENCH_interval_index.json``.

The measured query is deliberately scan-shaped (an aggregate with no
equality predicate): equality probes are served by the hash index first
and never reach the interval index, so they cannot show this effect.

Knobs for quicker runs:

* ``TAUPSM_INTERVAL_SIZES=SMALL`` — skip the LARGE dataset (CI smoke);
* ``TAUPSM_MAX_CONTEXT=30`` — drop the one-year contexts.
"""

import json
import os
from pathlib import Path

from benchmarks.conftest import print_report
from repro.bench.harness import run_cell
from repro.bench.reporting import trace_summary
from repro.taubench.queries import QuerySpec
from repro.temporal.stratum import SlicingStrategy

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_interval_index.json"
ROUNDS = 2  # report the best of N to damp scheduler noise

SCAN_QUERY = QuerySpec(
    name="interval_scan",
    feature="sequenced scan without equality probes",
    routines=(),
    build_query=lambda dataset: "SELECT COUNT(*) AS n FROM item",
)


def _sizes():
    raw = os.environ.get("TAUPSM_INTERVAL_SIZES", "SMALL,LARGE")
    return [size.strip().upper() for size in raw.split(",") if size.strip()]


def _contexts():
    cap = int(os.environ.get("TAUPSM_MAX_CONTEXT", "365"))
    return [days for days in (30, 365) if days <= cap]


def _measure(dataset, days, enabled):
    """Best-of-ROUNDS cell plus the interval-index counter deltas."""
    db = dataset.stratum.db
    saved = db.interval_indexing_enabled
    db.interval_indexing_enabled = enabled
    hits_before = db.obs.value("engine.interval_index_hits")
    pruned_before = db.obs.value("engine.interval_rows_pruned")
    try:
        best = None
        for _ in range(ROUNDS):
            cell = run_cell(
                dataset, SCAN_QUERY, SlicingStrategy.MAX, days, warm=True
            )
            assert cell.ok, cell.error
            if best is None or cell.seconds < best.seconds:
                best = cell
        hits = db.obs.value("engine.interval_index_hits") - hits_before
        pruned = db.obs.value("engine.interval_rows_pruned") - pruned_before
        return best, hits, pruned
    finally:
        db.interval_indexing_enabled = saved


def _cell_dict(cell):
    return {
        "seconds": cell.seconds,
        "rows": cell.rows,
        "slices": cell.slices,
        "rows_scanned": cell.rows_scanned,
        "statements": cell.statements,
    }


def test_interval_index_ablation(benchmark, request):
    datasets = [
        (size, request.getfixturevalue(f"ds1_{size.lower()}"))
        for size in _sizes()
    ]
    contexts = _contexts()
    cells = []
    lines = []
    for size, dataset in datasets:
        for days in contexts:
            indexed, hits, pruned = _measure(dataset, days, True)
            linear, _, _ = _measure(dataset, days, False)
            # pruning only: identical answer over strictly fewer rows
            assert indexed.rows == linear.rows
            assert indexed.slices == linear.slices
            assert hits > 0 and pruned > 0
            assert indexed.rows_scanned < linear.rows_scanned
            cells.append(
                {
                    "dataset": f"DS1-{size}",
                    "context_days": days,
                    "indexed": _cell_dict(indexed),
                    "linear": _cell_dict(linear),
                    "interval_index_hits": hits,
                    "rows_pruned": pruned,
                    "speedup": linear.seconds / indexed.seconds,
                }
            )
            lines.append(
                f"  DS1-{size:<5} {days:>3}d:"
                f"  indexed {indexed.seconds:.4f}s"
                f"  linear {linear.seconds:.4f}s"
                f"  speedup {cells[-1]['speedup']:.2f}x"
                f"  ({indexed.rows_scanned} vs {linear.rows_scanned}"
                f" rows scanned, {indexed.slices} slices)"
            )

    # feed pytest-benchmark the largest swept cell's indexed timing
    largest_size, largest_dataset = datasets[-1]
    largest_days = contexts[-1]
    benchmark.pedantic(
        lambda: _measure(largest_dataset, largest_days, True),
        rounds=1,
        iterations=1,
    )

    payload = {
        "query": SCAN_QUERY.name,
        "strategy": "max",
        "sizes": [size for size, _ in datasets],
        "contexts": contexts,
        "rounds": ROUNDS,
        "cells": cells,
        "trace_summary": trace_summary(largest_dataset.stratum.db),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print_report(
        f"Sequenced MAX {SCAN_QUERY.name}, interval index on/off:\n"
        + "\n".join(lines)
        + f"\n  -> {OUTPUT.name}"
    )
    # the speedup is recorded, not gated: what the ratio measured on the
    # CI smoke's cells was mostly the generic per-row comparison the
    # linear side paid for the period conjuncts (DS1-SMALL 365 d: 2.0x
    # with it, 1.35x once level filters became class-typed — linear
    # 19.1 -> 9.8 ms, indexed 9.5 -> 7.2 ms, 2 597 vs 21 783 rows
    # scanned either way); what must hold is the equal answer over
    # strictly fewer rows, asserted per cell above

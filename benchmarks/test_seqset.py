"""SEQ-SET vs the per-period strategies on routine-free sequenced scans.

MAX pays one engine round-trip per constant period; SEQ-SET aligns each
row onto the constant-period grid once and emits the identical rows in
one pass.  The sweep crosses context length (slice count) with dataset
size (rows per slice) for a routine-free selection — the SEQ-SET
fragment — and adds one routine-bearing cell to show the transparent
MAX fallback costs nothing extra.  Emits ``BENCH_seqset.json``.

Knobs for quicker runs:

* ``TAUPSM_SEQSET_SIZES=SMALL`` — skip the LARGE dataset (CI smoke);
* ``TAUPSM_MAX_CONTEXT=30`` — drop the one-year contexts;
* ``TAUPSM_SEQSET_OUTPUT=PATH`` — write there, not over the committed
  ``BENCH_seqset.json`` (CI smoke).
"""

import json
import os
from pathlib import Path

from benchmarks.conftest import print_report
from repro.bench.harness import run_cell
from repro.bench.reporting import trace_summary
from repro.taubench import get_query
from repro.taubench.queries import QuerySpec
from repro.temporal.stratum import SlicingStrategy

OUTPUT = Path(
    os.environ.get("TAUPSM_SEQSET_OUTPUT")
    or Path(__file__).resolve().parent.parent / "BENCH_seqset.json"
)
ROUNDS = 2  # report the best of N to damp scheduler noise

SELECTION_QUERY = QuerySpec(
    name="seqset_selection",
    feature="routine-free sequenced selection (the SEQ-SET fragment)",
    routines=(),
    build_query=lambda dataset: (
        "SELECT i.id, i.price FROM item i WHERE i.price > 50"
    ),
)

# a routine-bearing query: outside the fragment, so requesting SEQ-SET
# must transparently fall back to MAX
ROUTINE_QUERY = get_query("q2")

STRATEGIES = (SlicingStrategy.SEQSET, SlicingStrategy.MAX, SlicingStrategy.PERST)


def _sizes():
    raw = os.environ.get("TAUPSM_SEQSET_SIZES", "SMALL,LARGE")
    return [size.strip().upper() for size in raw.split(",") if size.strip()]


def _contexts():
    cap = int(os.environ.get("TAUPSM_MAX_CONTEXT", "365"))
    return [days for days in (30, 365) if days <= cap]


def _measure(dataset, query, strategy, days):
    best = None
    for _ in range(ROUNDS):
        cell = run_cell(dataset, query, strategy, days, warm=True)
        assert cell.ok, cell.error
        if best is None or cell.seconds < best.seconds:
            best = cell
    return best


def _cell_dict(cell):
    return {
        "seconds": cell.seconds,
        "rows": cell.rows,
        "slices": cell.slices,
        "rows_scanned": cell.rows_scanned,
        "routine_calls": cell.routine_calls,
        "statements": cell.statements,
    }


def test_seqset_vs_per_period(benchmark, request):
    datasets = [
        (size, request.getfixturevalue(f"ds1_{size.lower()}"))
        for size in _sizes()
    ]
    contexts = _contexts()
    cells = []
    lines = []
    for size, dataset in datasets:
        for days in contexts:
            by_strategy = {}
            for strategy in STRATEGIES:
                cell = _measure(dataset, SELECTION_QUERY, strategy, days)
                by_strategy[strategy.value] = cell
                if strategy is SlicingStrategy.SEQSET:
                    # covered shape: the set-oriented pass actually ran
                    assert dataset.stratum.last_strategy is SlicingStrategy.SEQSET
                    assert dataset.stratum.last_fallback is None
            seqset = by_strategy["seqset"]
            max_cell = by_strategy["max"]
            # row-identity with MAX is the whole contract
            assert seqset.rows == max_cell.rows
            assert seqset.slices == max_cell.slices
            cells.append(
                {
                    "dataset": f"DS1-{size}",
                    "context_days": days,
                    **{
                        name: _cell_dict(cell)
                        for name, cell in by_strategy.items()
                    },
                    "speedup_vs_max": max_cell.seconds / seqset.seconds,
                    "speedup_vs_perst": (
                        by_strategy["perst"].seconds / seqset.seconds
                    ),
                }
            )
            lines.append(
                f"  DS1-{size:<5} {days:>3}d:"
                f"  seqset {seqset.seconds:.4f}s"
                f"  max {max_cell.seconds:.4f}s"
                f"  perst {by_strategy['perst'].seconds:.4f}s"
                f"  ({cells[-1]['speedup_vs_max']:.1f}x vs max,"
                f" {seqset.slices} slices, {seqset.rows} rows)"
            )

    # the routine-bearing split: SEQ-SET declines and re-runs under MAX
    # with identical rows — the fallback is transparent, not slower
    largest_size, largest_dataset = datasets[-1]
    largest_days = contexts[-1]
    fallback = _measure(
        largest_dataset, ROUTINE_QUERY, SlicingStrategy.SEQSET, largest_days
    )
    assert largest_dataset.stratum.last_strategy is SlicingStrategy.MAX
    assert largest_dataset.stratum.last_fallback is not None
    max_routine = _measure(
        largest_dataset, ROUTINE_QUERY, SlicingStrategy.MAX, largest_days
    )
    assert fallback.rows == max_routine.rows
    routine_cell = {
        "dataset": f"DS1-{largest_size}",
        "context_days": largest_days,
        "query": ROUTINE_QUERY.name,
        "seqset_fallback": _cell_dict(fallback),
        "max": _cell_dict(max_routine),
        "fallback_overhead": fallback.seconds / max_routine.seconds,
    }
    lines.append(
        f"  DS1-{largest_size:<5} {largest_days:>3}d {ROUTINE_QUERY.name}"
        f" (routine-bearing): seqset->max fallback {fallback.seconds:.4f}s"
        f"  max {max_routine.seconds:.4f}s"
        f"  (overhead {routine_cell['fallback_overhead']:.2f}x)"
    )

    benchmark.pedantic(
        lambda: _measure(
            largest_dataset, SELECTION_QUERY, SlicingStrategy.SEQSET,
            largest_days,
        ),
        rounds=1,
        iterations=1,
    )

    payload = {
        "query": SELECTION_QUERY.name,
        "routine_query": ROUTINE_QUERY.name,
        "strategies": [s.value for s in STRATEGIES],
        "sizes": [size for size, _ in datasets],
        "contexts": contexts,
        "rounds": ROUNDS,
        "cells": cells,
        "routine_bearing": routine_cell,
        "trace_summary": trace_summary(largest_dataset.stratum.db),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print_report(
        f"SEQ-SET vs MAX vs PERST, {SELECTION_QUERY.name}:\n"
        + "\n".join(lines)
        + f"\n  -> {OUTPUT.name}"
    )
    # the acceptance bar: at least 3x over MAX on the largest swept cell
    assert cells[-1]["speedup_vs_max"] >= 3.0

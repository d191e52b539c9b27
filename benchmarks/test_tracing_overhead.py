"""Tracing overhead: the disabled path must be (near) free.

Runs one warm MAX cell (q2, DS1-SMALL, one year) two ways — tracer disabled (the
default), then enabled — and emits ``BENCH_tracing_overhead.json``.
The acceptance bar is on the *disabled* path: instrumentation sitting
in the hot loops (span call sites, scan counters, undo-depth gauge)
must not measurably slow normal execution.  Enabled tracing allocates
real span trees, so it is reported but only loosely bounded.
"""

import json
from pathlib import Path

from benchmarks.conftest import print_report
from repro.bench.harness import run_cell
from repro.bench.reporting import trace_summary
from repro.taubench import get_query
from repro.temporal.stratum import SlicingStrategy

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_tracing_overhead.json"
CONTEXT_DAYS = 365
ROUNDS = 3  # best-of-N damps scheduler noise


def _measure(dataset, query, traced):
    db = dataset.stratum.db
    saved = db.tracer.enabled
    db.tracer.enabled = traced
    try:
        best = None
        for _ in range(ROUNDS):
            cell = run_cell(
                dataset, query, SlicingStrategy.MAX, CONTEXT_DAYS, warm=True
            )
            assert cell.ok, cell.error
            if best is None or cell.seconds < best.seconds:
                best = cell
        return best
    finally:
        db.tracer.enabled = saved


def test_tracing_overhead(benchmark, ds1_small):
    query = get_query("q2")
    disabled = benchmark.pedantic(
        lambda: _measure(ds1_small, query, False), rounds=1, iterations=1
    )
    enabled = _measure(ds1_small, query, True)
    root = ds1_small.stratum.db.tracer.last_root
    payload = {
        "dataset": "DS1-SMALL",
        "query": query.name,
        "strategy": "max",
        "context_days": CONTEXT_DAYS,
        "disabled_seconds": disabled.seconds,
        "enabled_seconds": enabled.seconds,
        "enabled_over_disabled": enabled.seconds / disabled.seconds,
        "spans_when_enabled": sum(1 for _ in root.walk()) if root else 0,
        "trace_summary": trace_summary(ds1_small.stratum.db),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print_report(
        f"tracing overhead, MAX {query.name}, {CONTEXT_DAYS}-day context"
        f" (DS1-SMALL):\n"
        f"  tracer disabled: {disabled.seconds:.3f}s\n"
        f"  tracer enabled:  {enabled.seconds:.3f}s"
        f"  ({payload['spans_when_enabled']} spans)\n"
        f"  enabled/disabled: {payload['enabled_over_disabled']:.2f}x"
        f"  -> {OUTPUT.name}"
    )
    # identical work either way
    assert enabled.rows == disabled.rows
    assert enabled.routine_calls == disabled.routine_calls
    assert enabled.slices == disabled.slices
    # a real span tree exists when enabled
    assert root is not None
    assert (
        root.find("stratum.max.loop") is not None
        or root.find("stratum.max.execute") is not None
    )

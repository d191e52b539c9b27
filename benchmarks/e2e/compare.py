"""Comparing two sets of runs by the bounds ``BENCHMARK.json`` fixes.

A set is the JSON file ``python -m benchmarks.e2e run --out FILE``
writes: the full report of every run.  One row per (workload,
end-to-end metric): both medians, how much worse B is than A as a share
of A, and the bound.  A pair whose A-side run-to-run spread (distance
between the quartiles over the median) exceeds the bound is reported as
*unresolved*, not as unchanged.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    median_a: float
    median_b: float
    worse_by: float  # share of A's median; negative when B is better
    bound: float
    spread_a: Optional[float]  # None with fewer than two runs
    runs: tuple[int, int]

    @property
    def verdict(self) -> str:
        if self.worse_by > self.bound:
            return "REGRESSION"
        if self.spread_a is not None and self.spread_a > self.bound:
            return "unresolved"
        return "ok"


def spread(values: list[float]) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load_runs(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def compare(spec: dict, runs_a: dict, runs_b: dict) -> list[Row]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name]["value"] for run in a_runs]
            b = [run["end_to_end"][name]["value"] for run in b_runs]
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            rows.append(Row(
                workload, name, metric["unit"], median_a, median_b,
                change if metric["better"] == "lower" else -change,
                metric["bound"], spread(a), (len(a), len(b)),
            ))
        # failed_share: any rise is a regression, so its bound is zero
        share_a = _failed_share(a_runs)
        share_b = _failed_share(b_runs)
        rows.append(Row(
            workload, "failed_share", "ratio", share_a, share_b,
            share_b - share_a, 0.0, None, (len(a_runs), len(b_runs)),
        ))
    return rows


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<16} {'A median':>12} {'B median':>12}"
        f" {'unit':<5} {'B worse by':>10} {'bound':>6} {'A spread':>8}  verdict"
    ]
    for row in rows:
        spread_text = "-" if row.spread_a is None else f"{row.spread_a:8.1%}"
        lines.append(
            f"{row.workload:<13} {row.metric:<16} {row.median_a:12.4f}"
            f" {row.median_b:12.4f} {row.unit:<5} {row.worse_by:+10.1%}"
            f" {row.bound:6.0%} {spread_text:>8}  {row.verdict}"
            f" (n={row.runs[0]}/{row.runs[1]})"
        )
    return "\n".join(lines)

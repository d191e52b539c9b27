"""Measuring one in-process workload, and the arithmetic every workload
shares: result fingerprints, medians, the end-to-end metrics.

A run is set-up (several times, the median is ``setup_s``), one cold
pass (each template once on fresh caches, ``cold_pass_s``), then the
timed rounds.  The clock is ``perf_counter`` around the one public call
``TemporalStratum.execute(sql, strategy)``; SQL text exists before the
clock starts and results are checked after it stops.  Every elapsed
time that feeds an end-to-end metric is scaled to reference-machine
seconds (:mod:`calibration`); ``raw_s`` keeps the unscaled total for
the per-layer accounting.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Optional

from repro.sqlengine.errors import SqlError
from repro.sqlengine.values import Date
from repro.taubench import datasets
from repro.temporal.period import Period, coalesce
from repro.temporal.stratum import SlicingStrategy

from . import tracing, workloads
from .calibration import SpeedLog
from .workloads import Template

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SETUP_REPEATS = 5
MAX_FAILURES_KEPT = 5


# -- results as comparable values ---------------------------------------


def _plain(value: Any) -> Any:
    return value.ordinal if isinstance(value, Date) else value


def canonical(result: Any, check: str, context: Optional[Period]) -> Any:
    """A result (in-process or decoded from the wire) as plain tuples.

    ``raw`` keeps rows and their order (what SEQ-SET must share with
    MAX); ``sorted`` forgets the order; ``coalesced`` pools a CALL's
    result sets, clips periods to the context and coalesces (what PERST
    must share with MAX).
    """
    results = result if isinstance(result, list) else [result]
    if check == "coalesced":
        pooled = []
        for one in results:
            for row in one.rows:
                clipped = Period(row[-2].ordinal, row[-1].ordinal).intersect(context)
                if clipped is not None:
                    pooled.append((tuple(map(_plain, row[:-2])), clipped))
        return tuple(
            (values, period.begin, period.end)
            for values, period in coalesce(pooled)
        )
    rows = [
        (tuple(one.columns), tuple(tuple(map(_plain, row)) for row in one.rows))
        for one in results
    ]
    if check == "sorted":
        return tuple((columns, tuple(sorted(body, key=repr))) for columns, body in rows)
    return tuple(rows)


def fingerprint(value: Any) -> str:
    return hashlib.blake2b(repr(value).encode("utf-8"), digest_size=12).hexdigest()


def load_expected(workload: str, seed: int, quick: bool) -> Optional[dict]:
    """Committed fingerprints of full-size runs, if this seed has any."""
    path = EXPECTED_DIR / f"seed-{seed}.json"
    if quick or not path.exists():
        return None
    return json.loads(path.read_text()).get(workload)


# -- statistics ----------------------------------------------------------


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; ``share`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """What one run measured, before it is boiled down to metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, quick: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.setup_s: list[float] = []
        self.cold_s: dict[str, float] = {}  # template -> seconds, measured run
        # whole cold passes of throwaway set-ups (wire_oltp repeats them)
        self.rehearsal_cold_s: list[float] = []
        self.samples: dict[str, list[float]] = {}  # template -> scaled seconds
        self.raw_samples: dict[str, list[float]] = {}  # the same, as the clock read
        self.statements = 0  # timed statements (round trips on the wire)
        self.wall_s = 0.0  # timed wall, scaled
        self.raw_wall_s = 0.0
        self.raw_s = 0.0   # cold pass + timed statements, as the clock read
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.fingerprints: dict[str, str] = {}
        self.layers: dict[str, float] = {}
        # a traced run's spans, in the shape breakdown.by_template reads
        self.spans: Optional[dict] = None
        # wire_oltp only: latencies by class, recovery
        self.extra: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(message)

    def add_sample(self, template: str, raw: float, scaled: float) -> None:
        self.samples.setdefault(template, []).append(scaled)
        self.raw_samples.setdefault(template, []).append(raw)

    def medians_ms(self) -> dict[str, float]:
        return {
            name: statistics.median(values) * 1e3
            for name, values in self.samples.items()
        }

    def unscaled(self) -> dict[str, float]:
        """The two timing metrics as the clock read them, for the record."""
        return {
            "raw.stmts_per_s": self.statements / self.raw_wall_s,
            "raw.stmt_ms_geomean": geomean([
                statistics.median(values) * 1e3
                for values in self.raw_samples.values()
            ]),
        }

    def end_to_end(self) -> dict[str, dict]:
        medians = self.medians_ms()
        return {
            "setup_s": _metric(
                statistics.median(self.setup_s), "s", len(self.setup_s)
            ),
            "cold_pass_s": _metric(
                statistics.median(
                    [sum(self.cold_s.values()), *self.rehearsal_cold_s]
                ),
                "s", 1 + len(self.rehearsal_cold_s),
            ),
            "stmts_per_s": _metric(
                self.statements / self.wall_s, "1/s", self.statements
            ),
            "stmt_ms_geomean": _metric(
                geomean(list(medians.values())), "ms", len(medians)
            ),
            "peak_rss_mb": _metric(self.peak_rss_mb, "MB", 1),
        }

    def slowest(self) -> tuple[str, float]:
        """The template with the largest median latency, and that median
        in ms.  Printed with every run but gated by no bound: one
        template's few samples spread up to 29 % (10 % scaled) between
        runs here."""
        medians = self.medians_ms()
        name = max(medians, key=medians.get)
        return name, medians[name]

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "quick": self.quick,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "end_to_end": self.end_to_end(),
            "slowest": dict(zip(("template", "median_ms"), self.slowest())),
            "per_layer": self.layers,
            "templates": {
                name: {
                    "median_ms": statistics.median(values) * 1e3,
                    "min_ms": min(values) * 1e3,
                    "max_ms": max(values) * 1e3,
                    "samples": len(values),
                    "cold_ms": self.cold_s.get(name, 0.0) * 1e3,
                }
                for name, values in self.samples.items()
            },
            "fingerprints": self.fingerprints,
            "extra": {**self.unscaled(), **self.extra},
        }


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


# -- the in-process run --------------------------------------------------


def set_up(workload: str, quick: bool):
    """Data build + routine install, from nothing: the simulated rows
    ``build_dataset`` memoizes are dropped first so every repeat pays
    what the first one does."""
    datasets._simulated_rows.cache_clear()
    started = time.perf_counter()
    dataset = datasets.build_dataset("DS1", "SMALL" if quick else "LARGE")
    for query in workloads.routines_for(workload):
        query.install(dataset)
    return dataset, started, time.perf_counter()


def _references(
    report: Report, dataset, templates: list[Template]
) -> dict[str, Optional[str]]:
    """What each template's results must equal: the committed fingerprint
    where this seed has one, else the statement evaluated under MAX on a
    data set of its own (so the measured one stays cold)."""
    expected = load_expected(report.workload, report.seed, report.quick) or {}
    references: dict[str, Optional[str]] = {}
    for template in templates:
        if template.name in expected:
            references[template.name] = expected[template.name]
        elif template.strategy is SlicingStrategy.MAX:
            references[template.name] = None  # pinned by its cold pass
        else:
            result = dataset.stratum.execute(
                template.sql, strategy=SlicingStrategy.MAX
            )
            references[template.name] = fingerprint(
                canonical(result, template.check, template.context)
            )
    return references


def run_in_process(
    workload: str,
    seed: int,
    seconds: float,
    quick: bool,
    recorder: Optional[tracing.Recorder] = None,
) -> Report:
    report = Report(workload, seed, seconds, quick)
    speed = SpeedLog()
    reference_dataset = None
    set_ups = []
    for _ in range(2 if quick else SETUP_REPEATS):
        speed.sample()
        dataset, started, ended = set_up(workload, quick)
        set_ups.append((started, ended))
        if reference_dataset is None:
            reference_dataset = dataset
    speed.sample()
    report.setup_s = [speed.scaled(*interval) for interval in set_ups]
    templates = workloads.templates_for(workload, dataset, seed, seconds, quick)
    references = _references(report, reference_dataset, templates)
    stratum = dataset.stratum
    before = tracing.program_counters(stratum)
    if recorder is not None:
        recorder.reset()
        recorder.enabled = True
    statements: list[str] = []  # template of statement id 1, 2, ...
    intervals: list[tuple[float, float]] = []  # its start and end

    def timed(template: Template) -> None:
        speed.sample()
        statements.append(template.name)
        tracing.STATEMENT.set(len(statements))
        report.attempted += 1
        started = time.perf_counter()
        try:
            result = stratum.execute(template.sql, strategy=template.strategy)
        except SqlError as exc:
            intervals.append((started, time.perf_counter()))
            report.fail(f"{template.name}: {type(exc).__name__}: {exc}")
            return
        intervals.append((started, time.perf_counter()))
        found = fingerprint(canonical(result, template.check, template.context))
        wanted = references[template.name]
        if wanted is None:
            references[template.name] = wanted = found
        if found != wanted:
            report.fail(f"{template.name}: result {found} != reference {wanted}")

    gc.collect()
    for template in templates:
        timed(template)
    report.fingerprints = dict(references)
    # timed rounds, interleaved: pass n runs every template that has more
    # than n rounds, so a template's samples spread over the whole run
    # and a slow spell of the machine does not land on one template
    for round_index in range(max(t.rounds for t in templates)):
        gc.collect()
        for template in templates:
            if round_index < template.rounds:
                timed(template)
    speed.sample()
    if recorder is not None:
        recorder.enabled = False
    for index, (name, interval) in enumerate(zip(statements, intervals)):
        seconds = speed.scaled(*interval)
        report.raw_s += interval[1] - interval[0]
        if index < len(templates):
            report.cold_s[name] = seconds
        else:
            report.add_sample(name, interval[1] - interval[0], seconds)
            report.wall_s += seconds
            report.raw_wall_s += interval[1] - interval[0]
            report.statements += 1
    report.extra = speed.summary()
    report.peak_rss_mb = peak_rss_mb()
    if recorder is not None:
        totals = recorder.totals()
        report.layers = tracing.layer_metrics(
            totals,
            recorder.counts,
            tracing.counter_delta(tracing.program_counters(stratum), before),
        )
        report.layers["trace.coverage"] = (
            sum(entry["self_s"] for entry in totals.values()) / report.raw_s
        )
        report.spans = {
            "processes": {"in_process": recorder.dump()},
            "statements": statements,
        }
    return report

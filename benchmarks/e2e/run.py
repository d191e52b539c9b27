"""One run of one workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  A traced run measures the same fixed work twice,
first untraced and then with the wrappers of :mod:`tracing` installed,
so that ``trace.overhead_ratio`` compares like with like; end-to-end
numbers never come from the traced pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_COVERAGE = 0.9  # of in-process wall time the layers' self times must explain


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_benchmark():
    """The package is importable as ``benchmarks.e2e`` from a checkout;
    a directory that holds only the benchmark has no program to measure."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e import harness, tracing, wire

    return harness, tracing, wire


def measure(workload: str, seed: int, seconds: float, traced: bool, quick: bool):
    """Run ``workload`` once, and once more under tracing when asked.
    Returns the untraced run's Report; a traced run adds the per-layer
    metrics and spans to it, never a timing of its own."""
    harness, tracing, wire = _import_benchmark()
    run = wire.run_wire if workload == "wire_oltp" else harness.run_in_process
    report = run(workload, seed, seconds, quick)
    if not traced:
        return report
    recorder = tracing.Recorder()
    tracing.install(
        recorder,
        tracing.CLIENT_POINTS if workload == "wire_oltp" else tracing.ENGINE_POINTS,
    )
    traced_report = run(workload, seed, seconds, quick, recorder)
    report.layers = {
        "stmt_ms_slowest": report.slowest()[1],  # of the untraced pass
        **traced_report.layers,
    }
    report.spans = traced_report.spans
    report.layers["trace.overhead_ratio"] = (
        traced_report.raw_s / report.raw_s
    )
    report.attempted += traced_report.attempted
    report.failed += traced_report.failed
    report.failures += traced_report.failures
    coverage = report.layers["trace.coverage"]
    if workload != "wire_oltp" and coverage < MIN_COVERAGE:
        report.attempted += 1
        report.fail(
            f"layer accounting: self times cover {coverage:.3f} of wall time,"
            f" need {MIN_COVERAGE}"
        )
    return report


def print_report(summary: dict, units: dict[str, str]) -> None:
    """Every metric by name, with its unit and sample count."""
    print(f"workload {summary['workload']}  seed {summary['seed']}"
          f"  seconds {summary['seconds']:g}{'  quick' if summary['quick'] else ''}")
    for name, entry in summary["templates"].items():
        print(f"  template {name:<14} median {entry['median_ms']:10.3f} ms"
              f"  cold {entry['cold_ms']:10.3f} ms  n={entry['samples']}")
    for name, entry in summary["end_to_end"].items():
        print(f"  {name:<18} {entry['value']:14.4f} {entry['unit']:<5}"
              f" n={entry['samples']}")
    print(f"  {'stmt_ms_slowest':<18} {summary['slowest']['median_ms']:14.4f} ms   "
          f" ({summary['slowest']['template']}; not gated)")
    for name, value in summary["extra"].items():
        print(f"  {name:<18} {value:14.4f}")
    for name, value in summary["per_layer"].items():
        print(f"  {name:<36} {value:16.6f} {units[name]}")
    for message in summary["failures"]:
        print(f"  FAILED {message}")
    verdict = "correct" if summary["correct"] else "WRONG"
    print(f"  {verdict}: {summary['failed']} failed"
          f" of {summary['attempted']} attempted")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="DS1-SMALL, one round per template")
    parser.add_argument("--report", metavar="FILE",
                        help="also write the full report (JSON) here")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1: write the recorded spans (JSON) here")
    args = parser.parse_args(argv)
    report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    summary = report.to_json()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = summary["per_layer"] if args.trace else {
        name: entry["value"] for name, entry in summary["end_to_end"].items()
    }
    if set(measured) != {metric["name"] for metric in listed}:
        raise SystemExit(
            "BENCHMARK.json and the benchmark disagree on metric names: "
            f"{sorted(set(measured) ^ {m['name'] for m in listed})}"
        )
    print_report(summary, {m["name"]: m["unit"] for m in spec["per_layer"]})
    if args.report:
        Path(args.report).write_text(json.dumps(summary) + "\n")
    if args.spans and report.spans is not None:
        Path(args.spans).write_text(json.dumps(report.spans) + "\n")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric["name"]: {
                "value": measured[metric["name"]], "unit": metric["unit"]
            }
            for metric in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m benchmarks.e2e``: run every workload, compare two sets of
runs, or check that two sets of the same code agree.

    run       --seed N [--workload W] [--traced] [--quick] [--runs K] [--out FILE]
    compare   A.json B.json
    selfcheck [--seed N] [--runs K] [--quick]
    breakdown SPANS.json [--template T]

``run`` starts ``run.py`` once per workload and seed, each in a process
of its own (so peak memory is that run's), prints every metric by name
with its unit and the correctness verdict, and writes the full reports
to ``--out``.  The default ``--out`` is a fresh file under ``$TMPDIR``:
a smoke run can never overwrite a committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from . import breakdown, compare as comparing
from .run import ROOT, load_spec

DEFAULT_SEED = 20120401  # the seed with committed fingerprints in expected/


def run_set(
    spec: dict, names: list[str], seed: int, runs: int, traced: bool,
    quick: bool, out: Path, write_expected: bool = False,
) -> int:
    """Run ``names`` x seeds ``seed .. seed+runs-1``; returns the number
    of runs that were wrong or did not finish."""
    reports, bad = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        for offset in range(runs):
            for name in names:
                report_path = Path(scratch) / "report.json"
                command = [
                    sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
                    "--workload", name, "--seed", str(seed + offset),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", "1" if traced else "0",
                    "--report", str(report_path),
                ] + (["--quick"] if quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                # everything but the machine-readable last line
                sys.stdout.write(done.stdout[:done.stdout.rstrip().rfind("\n") + 1])
                sys.stdout.flush()
                if done.returncode != 0:
                    print(f"  run of {name} exited with {done.returncode}")
                    bad += 1
                    continue
                report = json.loads(report_path.read_text())
                reports.append(report)
                bad += not report["correct"]
    out.write_text(json.dumps({"runs": reports}) + "\n")
    print(f"{len(reports)} run(s) written to {out}; {bad} wrong or unfinished")
    if write_expected and not bad and not quick:
        expected = {r["workload"]: r["fingerprints"] for r in reports
                    if r["seed"] == seed and r["workload"] != "wire_oltp"}
        path = ROOT / "benchmarks" / "e2e" / "expected" / f"seed-{seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"fingerprints written to {path}")
    return bad


def _default_out(label: str) -> Path:
    handle, path = tempfile.mkstemp(prefix=f"e2e-{label}-", suffix=".json")
    os.close(handle)
    return Path(path)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads, print every metric")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--workload", choices=names)
    run.add_argument("--traced", action="store_true",
                     help="per-layer metrics from a separate traced run")
    run.add_argument("--quick", action="store_true",
                     help="DS1-SMALL, one round per template, < 20 s")
    run.add_argument("--runs", type=int, default=1,
                     help="runs per workload, each with the next seed")
    run.add_argument("--out", type=Path)
    run.add_argument("--write-expected", action="store_true",
                     help="record this seed's result fingerprints in expected/")

    cmp_ = commands.add_parser("compare", help="B against A, by the bounds")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)

    check = commands.add_parser(
        "selfcheck", help="two sets of runs of this checkout must agree")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--runs", type=int, default=3)
    check.add_argument("--quick", action="store_true")

    layers = commands.add_parser(
        "breakdown", help="self time per layer and template, from run.py --spans")
    layers.add_argument("spans", type=Path)
    layers.add_argument("--template", default="")

    args = parser.parse_args(argv)
    if args.command == "breakdown":
        print(breakdown.format_breakdown(
            breakdown.by_template(args.spans), args.template
        ))
        return 0
    if args.command == "run":
        out = args.out or _default_out("quick" if args.quick else "run")
        chosen = [args.workload] if args.workload else names
        return 1 if run_set(
            spec, chosen, args.seed, args.runs, args.traced, args.quick, out,
            args.write_expected,
        ) else 0
    if args.command == "compare":
        rows = comparing.compare(
            spec, comparing.load_runs(args.a), comparing.load_runs(args.b)
        )
        print(comparing.format_rows(rows))
        return 1 if any(row.verdict == "REGRESSION" for row in rows) else 0
    # selfcheck: A/A — neither set may be worse than the other beyond a bound
    outs = [_default_out(f"selfcheck-{side}") for side in "ab"]
    bad = sum(
        run_set(spec, names, args.seed, args.runs, False, args.quick, out)
        for out in outs
    )
    sets = [comparing.load_runs(out) for out in outs]
    forward = comparing.compare(spec, sets[0], sets[1])
    backward = comparing.compare(spec, sets[1], sets[0])
    print(comparing.format_rows(forward))
    disagree = [
        row for row in forward + backward if row.verdict == "REGRESSION"
    ]
    for row in disagree:
        print(f"DISAGREE {row.workload} {row.metric}: {row.worse_by:+.1%}"
              f" beyond {row.bound:.0%}")
    print("selfcheck", "FAILED" if disagree or bad else "passed")
    return 1 if disagree or bad else 0


if __name__ == "__main__":
    sys.exit(main())

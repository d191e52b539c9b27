"""Smoke test of the benchmark itself; run with ``pytest benchmarks/e2e``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs the
``--quick`` mode end to end — DS1-SMALL, one round, a scratch output
path — and checks what it printed against the workload and metric names
``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK_BUDGET_S = 20.0


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def test_quick_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "quick.json"
    started = time.monotonic()
    done = _run("run", "--quick", "--traced", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < QUICK_BUDGET_S
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == [
        workload["name"] for workload in SPEC["workloads"]
    ]
    for run in runs:
        assert run["quick"] and run["correct"] and run["failed"] == 0
        assert run["attempted"] >= 1
        assert set(run["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(run["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["end_to_end"]:
            entry = run["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0 and entry["samples"] >= 1


def test_contract_line_is_the_last_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", "routine_free", "--seed", "7", "--seconds", "1",
         "--trace", "0", "--quick"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0
    last = json.loads(done.stdout.rstrip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_compare_flags_a_regression(tmp_path):
    out = tmp_path / "a.json"
    assert _run("run", "--quick", "--workload", "routine_free",
                "--out", str(out)).returncode == 0
    slower = json.loads(out.read_text())
    for run in slower["runs"]:
        run["end_to_end"]["stmt_ms_geomean"]["value"] *= 2
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert _run("compare", str(out), str(out)).returncode == 0
    done = _run("compare", str(out), str(worse))
    assert done.returncode == 1
    assert "REGRESSION" in done.stdout

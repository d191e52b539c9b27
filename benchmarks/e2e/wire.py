"""``wire_oltp``: the deployed shape, driven over the wire.

``python -m repro serve --db <tmp> --load DS1 LARGE`` runs as a
subprocess with its defaults (fsync per commit, automatic checkpoints).
This one asyncio process drives it through two connections, closed
loop, no think time: connection 0 mixes reads with every write,
connection 1 only reads.  Every statement is generated before the clock
starts.  The run ends with SIGKILL of the server, a timed in-process
``TemporalStratum.open`` of its store, and a check that the last
acknowledged price of every updated item is what the reopened store
returns.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.server.client import ReproClient, ServerError
from repro.server.protocol import FrameError
from repro.sqlengine.errors import SqlError
from repro.sqlengine.wal import DEFAULT_AUTO_CHECKPOINT_BYTES, WAL_FILE
from repro.taubench.datasets import build_dataset
from repro.taubench.queries import get_query
from repro.temporal.stratum import SlicingStrategy, TemporalStratum

from . import tracing, workloads
from .calibration import SpeedLog
from .harness import Report, canonical, fingerprint, percentile
from .workloads import WireOp, WirePlan

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = ROOT / ".bench_work"  # inside the checkout, ignored by git
SETUP_REPEATS = 5
START_TIMEOUT_S = 60.0
SPINS_PER_PAUSE = 3  # speed samples taken whenever the wire is idle
# a transaction is held back while the WAL is this close to the automatic
# checkpoint: several times what its own four updates write (~0.8 KB)
CHECKPOINT_MARGIN_BYTES = 4 * 1024
WIRE_ERRORS = (ServerError, ConnectionError, FrameError)


class Server:
    """One server subprocess on a temporary store of its own."""

    def __init__(self, size: str, traced: bool) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="wire-", dir=WORK_DIR))
        self.store = self.dir / "store"
        self.dump_prefix = self.dir / "trace"
        self.dumps = 0
        serve = ["--db", str(self.store), "--port", "0", "--load", "DS1", size]
        if traced:
            command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                       str(self.dump_prefix), *serve]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(self.dir / "server.log", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=ROOT,
        )
        try:
            self.port = self._await_listening()
        except BaseException:
            self.remove()
            raise

    def _await_listening(self) -> int:
        watchdog = threading.Timer(START_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            for raw in self.process.stdout:
                line = raw.decode("utf-8", "replace").strip()
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        raise RuntimeError(
            "server did not start: " + (self.dir / "server.log").read_text()[-2000:]
        )

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def dump(self) -> dict:
        """Ask the traced launcher for its spans and counters so far."""
        self.dumps += 1
        path = Path(f"{self.dump_prefix}.{self.dumps}.json")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not path.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no dump")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def kill(self) -> None:
        """SIGKILL and reap; the store stays for the recovery check."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self.log.close()

    def remove(self) -> None:
        self.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


async def _connect(server: Server, routines) -> list[ReproClient]:
    clients = [
        await ReproClient.connect("127.0.0.1", server.port, reconnect=False)
        for _ in workloads.WIRE_MIX
    ]
    for routine in routines:
        await clients[0].execute(routine)
    return clients


class _Driver:
    """The load generator: both connections of one run."""

    def __init__(self, report: Report, plan: WirePlan, references: dict) -> None:
        self.report = report
        self.plan = plan
        self.references = references
        self.speed = SpeedLog()
        self.wal_path: Optional[Path] = None  # the server's WAL, once it runs
        self.held: dict[int, list[WireOp]] = {}  # transactions waiting, per connection
        # (template, round trips, start, end) of every operation run
        self.operations: list[tuple[str, int, float, float]] = []
        self.acked: dict[str, float] = {}  # item -> last acknowledged price
        self.round_trips: dict[str, list[float]] = {"read": [], "write": []}
        self.statements: list[str] = []  # template of statement id 1, 2, ...
        self.sql_templates: dict[str, str] = {}

    async def run_op(self, client: ReproClient, op: WireOp) -> None:
        report = self.report
        is_read = op.template in workloads.WIRE_READS
        started = time.perf_counter()
        failed = False
        for sql in op.statements:
            self.statements.append(op.template)
            self.sql_templates[sql] = op.template
            tracing.STATEMENT.set(len(self.statements))
            report.attempted += 1
            sent = time.perf_counter()
            try:
                result = await client.execute(sql)
            except WIRE_ERRORS as exc:
                report.fail(f"{op.template}: {type(exc).__name__}: {exc}")
                failed = True
                if isinstance(exc, ServerError):
                    continue
                raise
            elapsed = time.perf_counter() - sent
            if is_read:
                self.round_trips["read"].append(elapsed)
                found = _read_fingerprint(result, op.template, self.plan)
                if found != self.references[sql]:
                    report.fail(f"{op.template}: {found} != {self.references[sql]}")
            elif sql != "BEGIN":
                if sql == "COMMIT" or len(op.statements) == 1:
                    # the round trips that make a write durable
                    self.round_trips["write"].append(elapsed)
                if sql.startswith("UPDATE") and result != 1:
                    report.fail(f"{op.template}: UPDATE touched {result!r} rows")
        if not failed:
            self.acked.update(op.prices)
        self.operations.append(
            (op.template, len(op.statements), started, time.perf_counter())
        )

    def near_checkpoint(self) -> bool:
        room = DEFAULT_AUTO_CHECKPOINT_BYTES - self.wal_path.stat().st_size
        return room < CHECKPOINT_MARGIN_BYTES

    async def run_connection(
        self, index: int, client: ReproClient, ops, last_block: bool
    ) -> None:
        """One connection's operations of a block, in order — except
        that a transaction waits while its COMMIT could be the commit
        that crosses the automatic checkpoint threshold, and runs as
        soon as another write has crossed it.  The program fails such a
        COMMIT ("cannot checkpoint inside an open transaction",
        BASELINE.md finding 11) and a workload may hold no operation
        that fails.  The same operations run, a few of them later."""
        held = self.held.setdefault(index, [])
        for op in ops:
            if op.template == "txn" and self.near_checkpoint():
                held.append(op)
                continue
            await self.run_op(client, op)
            while held and not self.near_checkpoint():
                await self.run_op(client, held.pop(0))
        while held and last_block:
            await self.run_op(client, held.pop(0))


def _read_fingerprint(result: Any, template: str, plan: WirePlan) -> str:
    """Row count + order-insensitive checksum of a read: sequenced reads
    coalesced (the server's AUTO may answer with PERST's periods where
    the reference has MAX's), current reads as a sorted multiset."""
    if template.startswith("seq_"):
        value = canonical(result, "coalesced", plan.read_context)
        return f"{len(value)}:{fingerprint(value)}"
    return f"{len(result.rows)}:{fingerprint(canonical(result, 'sorted', None))}"


def _reference_results(dataset, plan: WirePlan) -> dict[str, str]:
    """The fingerprint of every distinct read, evaluated in-process
    (sequenced ones under MAX) on a data set no write touches."""
    get_query("q2").install(dataset)
    references: dict[str, str] = {}
    for ops in (plan.cold, *(ops for block in plan.blocks for ops in block)):
        for op in ops:
            if op.template in workloads.WIRE_READS:
                sql = op.statements[0]
                if sql not in references:
                    references[sql] = _read_fingerprint(
                        dataset.stratum.execute(sql, strategy=SlicingStrategy.MAX),
                        op.template, plan,
                    )
    return references


def _recover_and_check(server: Server, driver: _Driver, report: Report) -> float:
    started = time.perf_counter()
    stratum = TemporalStratum.open(server.store)
    recovery_s = time.perf_counter() - started
    try:
        for item, price in sorted(driver.acked.items()):
            report.attempted += 1
            try:
                rows = stratum.execute(
                    f"SELECT i.price FROM item i WHERE i.id = '{item}'"
                ).rows
            except SqlError as exc:
                report.fail(f"recovery: {item}: {exc}")
                continue
            if [list(row) for row in rows] != [[price]]:
                report.fail(
                    f"recovery: {item} acknowledged {price}, store has {rows!r}"
                )
    finally:
        stratum.close(checkpoint=False)
    return recovery_s


def run_wire(
    workload: str,
    seed: int,
    seconds: float,
    quick: bool,
    recorder: Optional[tracing.Recorder] = None,
) -> Report:
    report = Report(workload, seed, seconds, quick)
    size = "SMALL" if quick else "LARGE"
    traced = recorder is not None
    dataset = build_dataset("DS1", size)
    plan = workloads.wire_plan(dataset, seed, seconds, quick)
    references = _reference_results(dataset, plan)
    for _ in range(0 if quick or traced else SETUP_REPEATS - 1):
        _rehearse(report, size, plan, references)
    driver = _Driver(report, plan, references)
    driver.speed.sample(SPINS_PER_PAUSE)
    started = time.perf_counter()
    server = Server(size, traced)
    try:
        server_before = asyncio.run(
            _measure(server, plan, driver, recorder, started)
        )
        report.peak_rss_mb = server.peak_rss_mb()
        server_after = server.dump() if traced else None
        server.kill()
        recovery_s = _recover_and_check(server, driver, report)
    finally:
        server.remove()
    reads, writes = driver.round_trips["read"], driver.round_trips["write"]
    # the highest percentile with ten samples beyond it: p99 of ~1500
    # reads, p95 of ~500 durable writes
    latencies = {
        "wire.read_ms_p50": percentile(reads, 0.50) * 1e3,
        "wire.read_ms_p99": percentile(reads, 0.99) * 1e3,
        "wire.write_ms_p50": percentile(writes, 0.50) * 1e3,
        "wire.write_ms_p95": percentile(writes, 0.95) * 1e3,
        "wire.recovery_s": recovery_s,
    }
    report.extra = {
        **driver.speed.summary(),
        **latencies,
        "wire.reads": len(reads),
        "wire.writes": len(writes),
        "wire.items_checked_after_recovery": len(driver.acked),
    }
    if traced:
        _layer_metrics(report, recorder, server_before, server_after, driver)
        report.layers.update(latencies)
    return report


def _rehearse(report: Report, size: str, plan: WirePlan, references: dict) -> None:
    """One more set-up and cold pass on a server of its own, thrown
    away afterwards: both are one-shot per server, so their metrics are
    medians over servers."""
    rehearsal = Report(report.workload, report.seed, report.seconds, report.quick)
    driver = _Driver(rehearsal, plan, references)
    driver.speed.sample(SPINS_PER_PAUSE)
    started = time.perf_counter()
    server = Server(size, traced=False)
    try:
        asyncio.run(_measure(server, plan, driver, None, started, cold_only=True))
    finally:
        server.remove()
    report.setup_s += rehearsal.setup_s
    report.rehearsal_cold_s.append(sum(rehearsal.cold_s.values()))
    report.attempted += rehearsal.attempted
    report.failed += rehearsal.failed
    report.failures += rehearsal.failures


async def _measure(
    server, plan, driver, recorder, started, cold_only=False
) -> Optional[dict]:
    """Connect, run the cold pass and (unless ``cold_only``) the timed
    blocks; fills the driver's report.  The machine's speed is sampled
    only while no statement is in flight — between cold operations and
    between blocks, where both connections wait for each other — because
    beside the load a spin would time the load."""
    report, speed = driver.report, driver.speed
    driver.wal_path = server.store / WAL_FILE
    clients = await _connect(server, plan.routines)
    connected = time.perf_counter()
    speed.sample(SPINS_PER_PAUSE)
    report.setup_s.append(speed.scaled(started, connected))
    server_before = None
    walls = []
    try:
        if recorder is not None:
            server_before = server.dump()  # also drops the set-up spans
            recorder.reset()
            recorder.enabled = True
        for op in plan.cold:
            await driver.run_op(clients[0], op)
            speed.sample()
        for block in () if cold_only else plan.blocks:
            speed.sample(SPINS_PER_PAUSE)
            begun = time.perf_counter()
            await asyncio.gather(*(
                driver.run_connection(index, client, ops, block is plan.blocks[-1])
                for index, (client, ops) in enumerate(zip(clients, block))
            ))
            walls.append((begun, time.perf_counter()))
        speed.sample(SPINS_PER_PAUSE)
        if recorder is not None:
            recorder.enabled = False
    finally:
        for client in clients:
            await client.close()
    for index, (template, round_trips, begun, ended) in enumerate(driver.operations):
        report.raw_s += ended - begun
        if index < len(plan.cold):
            report.cold_s[template] = speed.scaled(begun, ended)
        else:
            report.add_sample(template, ended - begun, speed.scaled(begun, ended))
            report.statements += round_trips
    report.wall_s = sum(speed.scaled(*wall) for wall in walls)
    report.raw_wall_s = sum(ended - begun for begun, ended in walls)
    return server_before


def _layer_metrics(report, recorder, before, after, driver) -> None:
    program = tracing.counter_delta(after["program"], before["program"])
    layers = after["layers"]
    client = recorder.totals()
    report.layers = tracing.layer_metrics(layers, after["counts"], program)
    # every round trip of the traced region, BEGIN and in-transaction
    # UPDATEs included: the time the two connections spent waiting
    all_round_trips = report.raw_s
    session = layers.get("server.session", {}).get("incl_s", 0.0)
    encode = layers.get("server.encode", {}).get("self_s", 0.0)
    client_s = sum(entry["self_s"] for entry in client.values())
    report.layers.update({
        "client.decode_s": client.get("client.decode", {}).get("self_s", 0.0),
        "wire.other_s": all_round_trips - session - encode - client_s,
        "trace.coverage": (
            sum(entry["self_s"] for entry in layers.values()) + client_s
        ) / all_round_trips,
    })
    report.spans = {
        "processes": {"server": after, "client": recorder.dump()},
        "statements": driver.statements,
        "sql_templates": driver.sql_templates,
    }

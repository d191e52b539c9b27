"""Crash-recovery fuzzing: random workloads, random kill points.

The invariant under test is the durability contract: after a crash at
*any* byte offset in the WAL, recovery reconstructs exactly the state
produced by the longest committed prefix of the workload — never a
partial transaction, never a lost committed one.

The harness runs a seeded random workload against a durable stratum,
recording the WAL size after each statement (those are the commit
boundaries).  It then simulates crashes by truncating a copy of the
directory's WAL at each boundary — and at offsets *inside* the record
that follows, to model torn writes — reopening, and comparing a logical
fingerprint against a reference in-memory run of the same statement
prefix.

Fingerprints deliberately exclude version counters (cache keys, not
state) and table identity — only names, schemas, rows, views, routines,
registries, and the temporal clock.

Extra seeds can be swept via ``TAUPSM_CRASH_SEEDS=1,2,3`` (CI runs a
fixed matrix this way).
"""

import os
import random
import shutil

import pytest

from repro.sqlengine.errors import SqlError
from repro.sqlengine.values import Date
from repro.sqlengine.wal import read_frames
from repro.temporal.stratum import TemporalStratum

DEFAULT_SEEDS = [11, 42]


def _seeds():
    raw = os.environ.get("TAUPSM_CRASH_SEEDS")
    if not raw:
        return DEFAULT_SEEDS
    return [int(s) for s in raw.split(",") if s.strip()]


SETUP = [
    # ADD VALIDTIME appends the period columns (``addcol`` records)
    "CREATE TABLE emp (name CHAR(12), dept CHAR(8), salary INTEGER)",
    "ALTER TABLE emp ADD VALIDTIME",
    "CREATE TABLE audit (note CHAR(30))",
    "CREATE TABLE payroll (dept CHAR(8), total INTEGER NOT NULL)",
    "INSERT INTO payroll VALUES ('sales', 0), ('eng', 0), ('ops', 0)",
    # routines registered with the stratum may only read temporal tables,
    # so the procedure mutates the non-temporal ledgers
    "CREATE PROCEDURE raise_dept (d CHAR(8), amount INTEGER)"
    " LANGUAGE SQL BEGIN"
    " UPDATE payroll SET total = total + amount WHERE dept = d;"
    " INSERT INTO audit VALUES ('raise'); END",
]

NAMES = ["ann", "bob", "cho", "dev", "eve", "fay"]
DEPTS = ["sales", "eng", "ops"]
# every data tag the redo writer emits; each seed's WAL must hold all of
# them, so no replay branch goes unexercised
DATA_TAGS = {"ins", "upd", "delpos", "addcol", "mktable"}


def build_workload(seed, length=40):
    """A deterministic statement list: DML, sequenced and current
    updates, routine calls, clock advances, explicit transactions (some
    rolled back), writes to a version born at the clock, and an UPDATE
    that NOT NULL refuses."""
    rng = random.Random(seed)
    ops = []
    day = 40  # ordinal offset into 2010 for clock advances
    for _ in range(length):
        kind = rng.randrange(14)
        name = rng.choice(NAMES)
        dept = rng.choice(DEPTS)
        salary = rng.randrange(30, 90) * 100
        begin = Date.from_ymd(2010, 1, 1 + rng.randrange(20))
        end = Date(begin.ordinal + 10 + rng.randrange(300))
        if kind < 4:
            # raw insert with explicit timestamps (a current INSERT via
            # the stratum would require a column list)
            ops.append((
                "raw",
                f"INSERT INTO emp VALUES ('{name}', '{dept}', {salary},"
                f" DATE '{begin.to_iso()}', DATE '{end.to_iso()}')",
            ))
        elif kind < 6:
            ops.append(
                f"VALIDTIME [DATE '{begin.to_iso()}', DATE '{end.to_iso()}']"
                f" UPDATE emp SET salary = salary + 50 WHERE name = '{name}'"
            )
        elif kind == 6:
            ops.append(f"CALL raise_dept('{dept}', {rng.randrange(1, 9)})")
        elif kind == 7:
            day += rng.randrange(1, 15)
            ops.append(("now", day))
        elif kind == 8:
            body = [
                f"INSERT INTO audit VALUES ('txn-{rng.randrange(1000)}')",
                f"DELETE FROM emp WHERE name = '{rng.choice(NAMES)}'"
                f" AND salary < {rng.randrange(30, 60) * 100}",
            ]
            outcome = "COMMIT" if rng.random() < 0.7 else "ROLLBACK"
            ops.append(("txn", body, outcome))
        elif kind == 9:
            ops.append(
                f"DELETE FROM audit WHERE note = 'txn-{rng.randrange(1000)}'"
            )
        elif kind == 10:
            # current: close the version alive at the clock, re-insert it
            ops.append(
                f"UPDATE emp SET salary = salary + 10 WHERE name = '{name}'"
            )
        elif kind < 13:
            # a version born at the clock, then updated in place or
            # removed at that same clock (other current versions close)
            verb = (
                f"UPDATE emp SET salary = {salary + 1}" if kind == 11
                else "DELETE FROM emp"
            )
            ops.append(("txn", [
                f"INSERT INTO emp (name, dept, salary)"
                f" VALUES ('{name}', '{dept}', {salary})",
                f"{verb} WHERE name = '{name}'",
            ], "COMMIT"))
        else:
            ops.append(
                ("refused", f"UPDATE payroll SET total = NULL WHERE dept = '{dept}'")
            )
    return ops


def apply_op(stratum, op):
    if isinstance(op, str):
        stratum.execute(op)
    elif op[0] == "raw":
        stratum.db.execute(op[1])
    elif op[0] == "now":
        stratum.db.now = Date(Date.from_ymd(2010, 1, 1).ordinal + op[1])
    elif op[0] == "refused":
        with pytest.raises(SqlError, match="NULL not allowed"):
            stratum.execute(op[1])
    else:
        _, body, outcome = op
        stratum.db.execute("BEGIN")
        for sql in body:
            stratum.execute(sql)
        stratum.db.execute(outcome)


def assert_every_data_tag(wal_bytes):
    tags = {record[0] for record in read_frames(wal_bytes)[0]}
    assert DATA_TAGS <= tags, f"no {sorted(DATA_TAGS - tags)} record in the WAL"


def fingerprint(stratum):
    """Logical state: everything durability must preserve, nothing more."""
    db = stratum.db
    tables = {}
    for table in db.catalog.tables():
        if table.temporary:
            continue
        tables[table.name] = (
            [(c.name, c.type.name) for c in table.columns],
            sorted(map(tuple, table.rows), key=repr),
        )
    return {
        "tables": tables,
        "views": sorted(db.catalog._views),
        "routines": sorted(r.name for r in db.catalog.routines()),
        "registry": sorted(
            (i.name, i.begin_column, i.end_column)
            for i in stratum.registry.infos()
        ),
        "now": db.now.ordinal,
    }


def reference_fingerprints(ops):
    """Fingerprint after each committed prefix, on a plain in-memory run."""
    stratum = TemporalStratum()
    for sql in SETUP:
        stratum.execute(sql)
    prints = [fingerprint(stratum)]
    for op in ops:
        apply_op(stratum, op)
        prints.append(fingerprint(stratum))
    return prints


@pytest.mark.parametrize("seed", _seeds())
def test_crash_at_every_commit_boundary(seed, tmp_path):
    ops = build_workload(seed)

    # durable run, recording the WAL size after setup and each statement
    live = TemporalStratum.open(
        tmp_path / "live", auto_checkpoint_bytes=1 << 40
    )
    for sql in SETUP:
        live.execute(sql)
    boundaries = [live.db.durability.wal_size()]
    for op in ops:
        apply_op(live, op)
        boundaries.append(live.db.durability.wal_size())
    live.close(checkpoint=False)

    expected = reference_fingerprints(ops)
    assert len(boundaries) == len(expected)

    wal_bytes = (tmp_path / "live" / "wal.log").read_bytes()
    assert_every_data_tag(wal_bytes)
    rng = random.Random(seed ^ 0xC0FFEE)
    # sample kill points (every boundary on short runs is fine, but keep
    # the sweep bounded); always include first, last, and a torn tail
    indexes = sorted(
        set([0, len(boundaries) - 1])
        | {rng.randrange(len(boundaries)) for _ in range(12)}
    )
    crash_dir = tmp_path / "crash"
    for index in indexes:
        offset = boundaries[index]
        for torn in (0, 1):
            cut = offset
            if torn:
                nxt = next(
                    (b for b in boundaries if b > offset), len(wal_bytes)
                )
                if nxt <= offset + 1:
                    continue  # no following record to tear
                cut = offset + 1 + rng.randrange(nxt - offset - 1)
            if crash_dir.exists():
                shutil.rmtree(crash_dir)
            shutil.copytree(tmp_path / "live", crash_dir)
            with open(crash_dir / "wal.log", "r+b") as handle:
                handle.truncate(cut)
            recovered = TemporalStratum.open(crash_dir)
            try:
                got = fingerprint(recovered)
                assert got == expected[index], (
                    f"seed {seed}: crash at boundary {index}"
                    f" (offset {cut}, torn={torn}) diverged"
                )
                # a recovered store must stay usable and durable
                recovered.execute("INSERT INTO audit VALUES ('post')")
            finally:
                recovered.close(checkpoint=False)


@pytest.mark.parametrize("seed", _seeds()[:1])
def test_crash_with_flipped_tail_byte(seed, tmp_path):
    """Bit rot in the final record truncates to the committed prefix."""
    ops = build_workload(seed, length=12)
    live = TemporalStratum.open(tmp_path / "live")
    for sql in SETUP:
        live.execute(sql)
    boundaries = [live.db.durability.wal_size()]
    for op in ops:
        apply_op(live, op)
        boundaries.append(live.db.durability.wal_size())
    live.close(checkpoint=False)

    expected = reference_fingerprints(ops)
    raw = bytearray((tmp_path / "live" / "wal.log").read_bytes())
    # flip a byte inside the final record's payload
    last_start = boundaries[-2]
    raw[last_start + 9] ^= 0xFF
    (tmp_path / "live" / "wal.log").write_bytes(bytes(raw))
    recovered = TemporalStratum.open(tmp_path / "live")
    try:
        assert fingerprint(recovered) == expected[-2]
    finally:
        recovered.close(checkpoint=False)


def test_recovery_after_checkpoint_mid_workload(tmp_path):
    """Crash after a checkpoint: snapshot + WAL suffix compose."""
    ops = build_workload(7, length=24)
    live = TemporalStratum.open(tmp_path / "live")
    for sql in SETUP:
        live.execute(sql)
    for op in ops[:12]:
        apply_op(live, op)
    live.checkpoint()
    for op in ops[12:]:
        apply_op(live, op)
    live.close(checkpoint=False)

    recovered = TemporalStratum.open(tmp_path / "live")
    try:
        assert fingerprint(recovered) == reference_fingerprints(ops)[-1]
    finally:
        recovered.close(checkpoint=False)

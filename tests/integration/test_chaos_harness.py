"""Chaos harness: seeded multi-site fault schedules over τBench.

The resilience invariant under test (DESIGN §3.7): under any armed
:class:`ChaosSchedule` a workload must either *complete* with exactly
the fault-free answer, *fail typed* (a ``SqlError`` subclass) with a
clean rollback — undo log empty, state fingerprint untouched — or,
when the schedule simulates a crash on a durable store, *recover* to
the committed-prefix fingerprint.  Never hang, never corrupt.

Knobs: ``TAUPSM_CHAOS_SEED`` rebases the seed sequence,
``TAUPSM_CHAOS_RUNS`` resizes the sweep (CI pins both).
"""

from __future__ import annotations

import os
import random
import shutil
import time

import pytest

from repro.sqlengine.errors import QueryCancelled, SqlError
from repro.sqlengine.resilience import verify_store
from repro.taubench import ALL_QUERIES, build_dataset
from repro.temporal.stratum import (
    SlicingStrategy,
    TemporalResult,
    TemporalStratum,
)

from tests.faultinject import ChaosSchedule

SEED = int(os.environ.get("TAUPSM_CHAOS_SEED", "20120401"))
RUNS = int(os.environ.get("TAUPSM_CHAOS_RUNS", "200"))
BEGIN, END = "2010-02-01", "2010-03-01"

# the never-hang backstop: generous enough that no fault-free cell on
# SMALL comes near it, so it only converts a genuine hang into a typed
# failure instead of a stuck test
BACKSTOP_SECONDS = 60.0


def normalize(result):
    """Order-independent, period-coalesced view of a query result."""
    if isinstance(result, TemporalResult):
        return sorted(result.coalesced(), key=repr)
    if isinstance(result, list):
        return [normalize(r) for r in result]
    if hasattr(result, "rows"):
        return sorted(map(tuple, result.rows), key=repr)
    return result


def fingerprint(stratum):
    """Logical state: table rows, routines, registry, clock."""
    db = stratum.db
    return {
        "tables": {
            t.name: sorted(map(tuple, t.rows), key=repr)
            for t in db.catalog.tables()
            if not t.temporary
        },
        "routines": sorted(r.name for r in db.catalog.routines()),
        "registry": sorted(i.name for i in stratum.registry.infos()),
        "now": db.now.ordinal,
    }


def _strategy_for(query, index):
    cycle = index % 3
    if cycle == 0:
        return SlicingStrategy.MAX
    if cycle == 1 and query.perst_applicable:
        return SlicingStrategy.PERST
    return SlicingStrategy.AUTO


@pytest.fixture(scope="module")
def arena():
    dataset = build_dataset("DS1", "SMALL")
    for query in ALL_QUERIES:
        query.install(dataset)
    return dataset


def test_chaos_invariant_over_query_suite(arena):
    """>= RUNS seeded schedules across the 16 queries x MAX/PERST/AUTO:
    complete with the exact rows, or fail typed leaving no trace."""
    db = arena.stratum.db
    db.resilience.statement_timeout = BACKSTOP_SECONDS
    # warm every (query, strategy) cell first: the clean pass records
    # the expected rows AND registers the derived max_*/perst_* driver
    # routines, so the baseline fingerprint below is stable
    plan = []
    clean: dict = {}
    for i in range(RUNS):
        query = ALL_QUERIES[i % len(ALL_QUERIES)]
        strategy = _strategy_for(query, i // len(ALL_QUERIES))
        sql = query.sequenced_sql(arena, BEGIN, END)
        plan.append((query, strategy, sql))
        key = (query.name, strategy.name)
        if key not in clean:
            clean[key] = normalize(arena.stratum.execute(sql, strategy))
    base = fingerprint(arena.stratum)
    outcomes = {"completed": 0, "typed": 0}
    try:
        for i, (query, strategy, sql) in enumerate(plan):
            key = (query.name, strategy.name)
            schedule = ChaosSchedule(SEED + i)
            schedule.arm(db)
            try:
                result = arena.stratum.execute(sql, strategy)
            except SqlError:
                outcomes["typed"] += 1
            else:
                outcomes["completed"] += 1
                assert normalize(result) == clean[key], schedule.describe()
            finally:
                schedule.disarm(db)
            # clean rollback, every time: no undo residue, no open marks
            assert db.txn.log == [], schedule.describe()
            assert db.txn.marks == [], schedule.describe()
            if i % 10 == 0:  # row-for-row state audit (spot-checked)
                assert fingerprint(arena.stratum) == base, schedule.describe()
    finally:
        db.resilience.disable()
    assert fingerprint(arena.stratum) == base
    # the schedule distribution must actually exercise both arms
    assert outcomes["completed"] > 0 and outcomes["typed"] > 0, outcomes


# ---------------------------------------------------------------------------
# durable chaos: crash-style faults recover to the committed prefix
# ---------------------------------------------------------------------------

DURABLE_SETUP = [
    "CREATE TABLE kv (k INTEGER, v INTEGER)",
    "INSERT INTO kv VALUES (0, 0), (1, 10), (2, 20), (3, 30)",
]


def _durable_ops(seed, count=12):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        kind = rng.randrange(6)
        k = rng.randrange(12)
        if kind < 3:
            v = rng.randrange(100)
            ops.append(
                f"INSERT INTO kv VALUES ({k}, {v}), ({k + 20}, {v + 1})"
            )
        elif kind == 3:
            ops.append(f"UPDATE kv SET v = v + 1 WHERE k = {k}")
        elif kind == 4:
            ops.append(f"DELETE FROM kv WHERE k = {k}")
        else:
            ops.append(("checkpoint",))
    return ops


def _apply(stratum, op):
    if isinstance(op, tuple):
        if stratum.db.durability is not None:  # no-op on the shadow
            stratum.db.checkpoint()
    else:
        stratum.execute(op)


def _durable_runs():
    raw = os.environ.get("TAUPSM_CHAOS_DURABLE_RUNS")
    return int(raw) if raw else 40


def test_chaos_durable_recovers_committed_prefix(tmp_path):
    """Crash-style faults at WAL/checkpoint sites: reopening the store
    lands on the pre- or post-statement fingerprint (the commit window
    is ambiguous) and the only disk damage is a quarantineable tail."""
    crashes = completions = 0
    for i in range(_durable_runs()):
        seed = SEED ^ (i * 2654435761)
        path = tmp_path / f"store-{i}"
        live = TemporalStratum.open(path, auto_checkpoint_bytes=1 << 40)
        shadow = TemporalStratum()
        for sql in DURABLE_SETUP:
            live.execute(sql)
            shadow.execute(sql)
        schedule = ChaosSchedule(
            seed,
            durable=True,
            max_fault_at=8,  # the workload makes ~10 hits per hot site
            cancel_probability=0.2,
            max_cancel_check=40,
        )
        schedule.arm(live.db)
        crashed = False
        try:
            for op in _durable_ops(seed):
                pre = fingerprint(shadow)
                try:
                    _apply(live, op)
                except SqlError as exc:
                    if isinstance(exc, QueryCancelled):
                        continue  # rolled back in memory; op skipped
                    crashed = True  # crash-style: the process "dies"
                    break
                _apply(shadow, op)
        finally:
            schedule.disarm(live.db)

        if crashed:
            crashes += 1
            # the dying process never closes cleanly: freeze the
            # directory as-is and recover from a copy
            copy = tmp_path / f"crash-{i}"
            shutil.copytree(path, copy)
            post = fingerprint(shadow)
            _apply(shadow, op)
            allowed = (post, fingerprint(shadow))
            recovered = TemporalStratum.open(copy)
            try:
                got = fingerprint(recovered)
                assert got in allowed, schedule.describe()
                recovered.execute("INSERT INTO kv VALUES (99, 99)")
            finally:
                recovered.close(checkpoint=False)
            # committed data is never corrupt: at worst a torn tail
            # that quarantine cleans
            assert verify_store(path, quarantine=True).ok, schedule.describe()
        else:
            completions += 1
            assert fingerprint(live) == fingerprint(shadow), schedule.describe()
            live.close(checkpoint=False)
            assert verify_store(path).ok, schedule.describe()
    # the sweep must exercise both arms to mean anything
    assert crashes > 0 and completions > 0, (crashes, completions)


# ---------------------------------------------------------------------------
# the acceptance scenario: a deadline mid-MAX-loop on q2's shape
# ---------------------------------------------------------------------------


def test_deadline_cancels_mid_max_loop_and_store_verifies(tmp_path):
    """A q2-shaped sequenced query (function-in-predicate join driven
    through the per-constant-period CALL loop) with a statement deadline
    a tenth of its own running time: cancels mid-loop with SQLSTATE
    57014, leaves the stratum usable, and the durable store verifies
    clean afterwards."""
    from repro.sqlengine.values import Date

    path = tmp_path / "store"
    stratum = TemporalStratum.open(path, auto_checkpoint_bytes=1 << 40)
    stratum.create_temporal_table(
        "CREATE TABLE author (author_id CHAR(10), first_name CHAR(40),"
        " begin_time DATE, end_time DATE)"
    )
    stratum.create_temporal_table(
        "CREATE TABLE item (id CHAR(10), title CHAR(100),"
        " begin_time DATE, end_time DATE)"
    )
    stratum.create_temporal_table(
        "CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10),"
        " begin_time DATE, end_time DATE)"
    )
    db = stratum.db
    base = Date.from_ymd(2010, 1, 1).ordinal
    # one author whose name changes daily: every day is its own
    # constant period, so MAX drives one CALL slice per day
    db.execute(
        "INSERT INTO author VALUES "
        + ", ".join(
            f"('a1', 'name{i}', DATE '{Date(base + i).to_iso()}',"
            f" DATE '{Date(base + i + 1).to_iso()}')"
            for i in range(400)
        )
    )
    db.execute(
        "INSERT INTO item VALUES "
        + ", ".join(
            f"('i{j}', 'Book {j}', DATE '{Date(base).to_iso()}',"
            " DATE '9999-12-31')"
            for j in range(5)
        )
    )
    db.execute(
        "INSERT INTO item_author VALUES "
        + ", ".join(
            f"('i{j}', 'a1', DATE '{Date(base).to_iso()}', DATE '9999-12-31')"
            for j in range(5)
        )
    )
    stratum.register_routine(
        """
        CREATE FUNCTION get_author_name (aid CHAR(10))
        RETURNS CHAR(40)
        READS SQL DATA
        LANGUAGE SQL
        BEGIN
          DECLARE fname CHAR(40);
          SET fname = (SELECT first_name FROM author WHERE author_id = aid);
          RETURN fname;
        END
        """
    )
    sequenced = (
        "VALIDTIME [DATE '2010-01-01', DATE '2011-02-01'] "
        "SELECT i.title FROM item i, item_author ia "
        "WHERE i.id = ia.item_id AND ia.author_id = 'a1' "
        "AND get_author_name(ia.author_id) = 'name100'"
    )
    # deterministic mid-loop cancellation first: check #150 is deep in
    # the per-period loop (the pre-loop gate takes < 10 checks, the
    # full statement thousands)
    db.resilience.cancel_at_check = 150
    with pytest.raises(QueryCancelled):
        stratum.execute(sequenced, SlicingStrategy.MAX)
    assert db.resilience.checks == 150

    # then the wall-clock shape: a deadline of a tenth of the statement's
    # own warm running time cancels with SQLSTATE 57014 long before
    # completion.  Both runs after the first hit the statement cache, so
    # the timed run and the cancelled one do the same work.
    started = time.perf_counter()
    stratum.execute(sequenced, SlicingStrategy.MAX)
    db.resilience.statement_timeout = (time.perf_counter() - started) / 10
    with pytest.raises(QueryCancelled) as excinfo:
        stratum.execute(sequenced, SlicingStrategy.MAX)
    assert excinfo.value.sqlstate == "57014"
    db.resilience.statement_timeout = None

    # the stratum stays usable: clean state, current queries answer
    assert db.txn.log == [] and db.txn.marks == []
    assert len(stratum.execute("SELECT title FROM item").rows) == 5
    stratum.close(checkpoint=False)

    report = verify_store(path)
    assert report.ok, report.render()

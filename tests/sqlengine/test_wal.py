"""Durability-layer unit tests: framing, commit discipline, checkpoint,
recovery, and the generalized fault plan.

Crash simulation here is the process model the design assumes: the
in-memory ``Database`` is simply abandoned and the directory reopened,
so only what the WAL/snapshot captured survives.
"""

import json
import os
import zlib

import pytest

from repro.sqlengine.checkpoint import SNAPSHOT_MAGIC, load_snapshot
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import FaultInjected
from repro.sqlengine.values import Date, Null
from repro.sqlengine.wal import (
    WalError,
    decode_row,
    decode_value,
    encode_record,
    encode_row,
    encode_value,
    frame,
    read_frames,
)
from repro.temporal.stratum import TemporalStratum

from tests.faultinject import FaultPlan, FaultSet


def reopen(path, db=None):
    """Abandon ``db`` (crash) and recover the directory from disk."""
    return Database.open(path)


class TestFraming:
    def test_round_trip(self):
        records = [["walhdr", 0], ["ins", "t", [1, "x"]], ["commit", 1, 100]]
        data = b"".join(frame(encode_record(r)) for r in records)
        decoded, ends = read_frames(data)
        assert decoded == records
        # each record's end offset; the last is the end of the data
        assert ends == [
            len(b"".join(frame(encode_record(r)) for r in records[:n + 1]))
            for n in range(len(records))
        ]
        assert ends[-1] == len(data)

    def test_torn_final_record(self):
        records = [["walhdr", 0], ["ins", "t", [1]]]
        data = b"".join(frame(encode_record(r)) for r in records)
        torn = data[:-3]
        decoded, ends = read_frames(torn)
        assert decoded == [["walhdr", 0]]
        assert ends == [len(frame(encode_record(["walhdr", 0])))]

    def test_checksum_mismatch_stops_scan(self):
        good = frame(encode_record(["walhdr", 0]))
        bad = bytearray(frame(encode_record(["ins", "t", [1]])))
        bad[-1] ^= 0xFF  # flip a payload byte; CRC no longer matches
        decoded, ends = read_frames(bytes(good) + bytes(bad))
        assert decoded == [["walhdr", 0]]
        assert ends == [len(good)]

    def test_implausible_length_prefix(self):
        good = frame(encode_record(["walhdr", 0]))
        garbage = b"\xff\xff\xff\xff\x00\x00\x00\x00payload"
        decoded, ends = read_frames(good + garbage)
        assert decoded == [["walhdr", 0]]
        assert ends == [len(good)]

    def test_undecodable_payload_stops_scan(self):
        good = frame(encode_record(["walhdr", 0]))
        bad = frame(b"\x80\x81 not json")
        decoded, ends = read_frames(good + bad)
        assert decoded == [["walhdr", 0]]
        assert ends == [len(good)]

    def test_value_encoding_round_trip(self):
        row = [1, 2.5, "x", True, Null, Date.from_ymd(2010, 6, 1)]
        assert decode_row(encode_row(row)) == row
        assert decode_value(encode_value(Null)) is Null

    def test_unencodable_value_rejected(self):
        with pytest.raises(WalError):
            encode_value(object())


class TestCommitDiscipline:
    def test_autocommit_statement_is_one_transaction(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        commits_after_ddl = db.obs.value("wal.commits")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.obs.value("wal.commits") == commits_after_ddl + 1
        assert db.obs.value("wal.fsyncs") == db.obs.value("wal.commits")

    def test_rollback_writes_nothing(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        size_before = db.durability.wal_size()
        commits_before = db.obs.value("wal.commits")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("ROLLBACK")
        assert db.durability.wal_size() == size_before
        assert db.obs.value("wal.commits") == commits_before
        db2 = reopen(tmp_path / "d", db)
        assert db2.query("SELECT id FROM t").rows == []

    def test_explicit_transaction_is_one_commit(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        commits_before = db.obs.value("wal.commits")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("COMMIT")
        assert db.obs.value("wal.commits") == commits_before + 1

    def test_savepoint_rollback_discards_window_only(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SAVEPOINT s")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("ROLLBACK TO SAVEPOINT s")
        db.execute("COMMIT")
        db2 = reopen(tmp_path / "d", db)
        assert db2.query("SELECT id FROM t").rows == [[1]]

    def test_failed_statement_leaves_no_redo(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1), (NULL)")
        db2 = reopen(tmp_path / "d", db)
        assert db2.query("SELECT id FROM t").rows == []

    def test_uncommitted_tail_discarded_and_truncated(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        # forge an uncommitted tail: a begin + insert with no commit
        manager = db.durability
        tail = frame(encode_record(["begin", 99])) + frame(
            encode_record(["ins", "t", [2]])
        )
        manager._file.write(tail)
        manager._file.flush()
        os.fsync(manager._file.fileno())
        size_with_tail = manager.wal_size()
        db2 = reopen(tmp_path / "d", db)
        assert db2.query("SELECT id FROM t").rows == [[1]]
        assert db2.durability.wal_size() < size_with_tail

    def test_now_survives_reopen(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.now = Date.from_ymd(2010, 7, 15)
        db.close(checkpoint=False)
        db2 = reopen(tmp_path / "d")
        assert db2.now == Date.from_ymd(2010, 7, 15)


class TestCheckpoint:
    def test_checkpoint_truncates_wal_and_bumps_generation(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        size_before = db.durability.wal_size()
        generation = db.checkpoint()
        assert generation == 1
        assert db.durability.wal_size() < size_before
        assert (tmp_path / "d" / "snapshot.json").exists()
        db2 = reopen(tmp_path / "d", db)
        assert db2.query("SELECT id FROM t").rows == [[1]]
        assert db2.durability.generation == 1

    def test_checkpoint_rejected_inside_transaction(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("BEGIN")
        with pytest.raises(WalError):
            db.checkpoint()
        db.execute("ROLLBACK")

    def test_stale_wal_generation_ignored(self, tmp_path):
        # crash between the snapshot rename and the WAL reset: the old
        # log (generation N) sits next to the new snapshot (N+1) and
        # must not be double-applied
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        old_wal = (tmp_path / "d" / "wal.log").read_bytes()
        db.checkpoint()
        db.close(checkpoint=False)
        (tmp_path / "d" / "wal.log").write_bytes(old_wal)  # resurrect
        db2 = reopen(tmp_path / "d")
        assert db2.query("SELECT id FROM t").rows == [[1]]
        assert db2.durability.generation == 1

    def test_corrupt_snapshot_rejected(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.close()
        snapshot = tmp_path / "d" / "snapshot.json"
        raw = bytearray(snapshot.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        snapshot.write_bytes(bytes(raw))
        with pytest.raises(WalError):
            Database.open(tmp_path / "d")

    def test_auto_checkpoint_on_threshold(self, tmp_path):
        db = Database()
        db.attach_durability(tmp_path / "d", auto_checkpoint_bytes=512)
        db.execute("CREATE TABLE t (id INTEGER, pad CHAR(40))")
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({i}, 'x')")
        assert db.obs.value("checkpoint.writes") >= 1
        db2 = reopen(tmp_path / "d", db)
        assert len(db2.query("SELECT id FROM t").rows) == 40

    def test_explicit_commit_straddling_threshold(self, tmp_path):
        """A COMMIT whose flush takes the WAL past the threshold used to
        fail with "cannot checkpoint inside an open transaction" after
        its frames were durable, leaving the session stuck in the
        transaction; the checkpoint now waits for the COMMIT to close."""
        db = Database()
        db.attach_durability(tmp_path / "d", auto_checkpoint_bytes=1024)
        db.execute("CREATE TABLE t (id INTEGER, pad CHAR(40))")
        writes_before = db.obs.value("checkpoint.writes")
        db.execute("BEGIN")
        for i in range(60):  # ≈ 1.7 KB of redo: crosses on the flush
            db.execute(f"INSERT INTO t VALUES ({i}, 'x')")
        assert db.durability.wal_size() < 1024  # nothing flushed mid-txn
        db.execute("COMMIT")
        assert not db.txn.explicit
        assert db.obs.value("checkpoint.writes") == writes_before + 1
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (60, 'y')")
        db.execute("COMMIT")
        db2 = reopen(tmp_path / "d", db)
        assert len(db2.query("SELECT id FROM t").rows) == 61


class TestRecoveryDdl:
    def test_views_and_routines_survive(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("CREATE VIEW v AS SELECT id FROM t WHERE id > 1")
        db.execute(
            "CREATE FUNCTION double_it (x INTEGER) RETURNS INTEGER"
            " LANGUAGE SQL BEGIN RETURN x * 2; END"
        )
        db.close(checkpoint=False)  # force WAL replay, not snapshot load
        db2 = reopen(tmp_path / "d")
        assert db2.query("SELECT id FROM v").rows == [[2]]
        assert db2.query("SELECT double_it(21) AS r FROM t WHERE id = 1").rows \
            == [[42]]

    def test_drop_table_replays(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("CREATE TABLE u (id INTEGER)")
        db.execute("DROP TABLE t")
        db.close(checkpoint=False)
        db2 = reopen(tmp_path / "d")
        assert not db2.catalog.has_table("t")
        assert db2.catalog.has_table("u")

    def test_alter_add_column_replays(self, tmp_path):
        stratum = TemporalStratum.open(tmp_path / "d")
        stratum.db.execute("CREATE TABLE emp (name CHAR(10))")
        stratum.execute("ALTER TABLE emp ADD VALIDTIME")
        stratum.db.execute(
            "INSERT INTO emp VALUES"
            " ('ann', DATE '2010-01-01', DATE '2011-01-01')"
        )
        stratum.close(checkpoint=False)
        s2 = TemporalStratum.open(tmp_path / "d")
        assert s2.registry.is_temporal("emp")
        table = s2.db.catalog.get_table("emp")
        assert table.column_names == ["name", "begin_time", "end_time"]
        assert len(table) == 1

    def test_registry_requires_stratum_open(self, tmp_path):
        stratum = TemporalStratum.open(tmp_path / "d")
        stratum.db.execute(
            "CREATE TABLE emp (name CHAR(10), begin_time DATE, end_time DATE)"
        )
        stratum.execute("ALTER TABLE emp ADD VALIDTIME")
        stratum.close()
        # plain Database.open cannot rebuild temporal registries
        with pytest.raises(WalError):
            Database.open(tmp_path / "d")


class TestRetiredFormats:
    """What only an earlier format wrote (the ``cell`` and ``wrow``
    record tags, per-row row lists) fails recovery with a typed
    WalError naming it; no second replay path survives for it."""

    @staticmethod
    def forge(path, *records):
        db = Database.open(path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        group = [["begin", 99], *records, ["commit", 99, db.now.ordinal]]
        db.durability._file.write(b"".join(frame(encode_record(r)) for r in group))
        db.close(checkpoint=False)

    @pytest.mark.parametrize("record", [["cell", "t", 0, 0, 5], ["wrow", "t", 0, [5]]])
    def test_retired_record_tag(self, tmp_path, record):
        self.forge(tmp_path / "d", record)
        with pytest.raises(WalError, match=f"'{record[0]}'"):
            Database.open(tmp_path / "d")

    def test_per_row_setrows(self, tmp_path):
        self.forge(tmp_path / "d", ["setrows", "t", [[5]]])
        with pytest.raises(WalError, match="per-row"):
            Database.open(tmp_path / "d")

    def test_per_row_snapshot(self, tmp_path):
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        path = tmp_path / "d" / "snapshot.json"
        payload = load_snapshot(path)
        spec = payload["tables"][0]
        del spec["cols"]
        spec["rows"] = [[1]]
        body = json.dumps(payload).encode("utf-8")
        path.write_bytes(f"{SNAPSHOT_MAGIC} {zlib.crc32(body):08x}\n".encode() + body)
        with pytest.raises(WalError, match="per-row"):
            Database.open(tmp_path / "d")

    def test_current_records_replay(self, tmp_path):
        """The live tags all replay: a row inserted, updated, deleted,
        a column added and a row set replaced."""
        self.forge(
            tmp_path / "d",
            ["ins", "t", [2]], ["upd", "t", 1, [[0, 3]]], ["delpos", "t", [0]],
            ["addcol", "t", ["x", ["INTEGER", None, None, None], False, False], 7],
        )
        db = Database.open(tmp_path / "d")
        assert db.table("t").rows == [[3, 7]]
        db.execute("INSERT INTO t VALUES (4, 8)")
        db.table("t").replace_rows([])
        db.close(checkpoint=False)
        assert Database.open(tmp_path / "d").table("t").rows == []


class TestFaultPlanGeneralization:
    def test_single_shot_unchanged(self):
        plan = FaultPlan("table.insert", at=2)
        plan.hit("table.insert", "t")
        with pytest.raises(FaultInjected):
            plan.hit("table.insert", "t")
        assert plan.fired
        plan.hit("table.insert", "t")  # spent: never fires again

    def test_every_nth(self):
        plan = FaultPlan("wal.fsync", at=2, every=3, times=None)
        fired_at = []
        for n in range(1, 12):
            try:
                plan.hit("wal.fsync", "wal")
            except FaultInjected:
                fired_at.append(n)
        assert fired_at == [2, 5, 8, 11]

    def test_times_caps_firings(self):
        plan = FaultPlan("wal.fsync", at=1, every=1, times=2)
        fired = 0
        for _ in range(6):
            try:
                plan.hit("wal.fsync", "wal")
            except FaultInjected:
                fired += 1
        assert fired == 2
        assert plan.spent

    def test_fault_set_arms_multiple_sites(self):
        insert_plan = FaultPlan("table.insert", at=2)
        fsync_plan = FaultPlan("wal.fsync")
        plans = FaultSet(insert_plan, fsync_plan)
        plans.hit("table.insert", "t")
        assert not plans.fired
        with pytest.raises(FaultInjected):
            plans.hit("wal.fsync", "wal")
        assert plans.fired
        with pytest.raises(FaultInjected):
            plans.hit("table.insert", "t")

    def test_wal_fsync_fault_durable_write_survives(self, tmp_path):
        # the fault fires after write+flush: the commit is on disk, so
        # the "crashed" transaction is visible after recovery — the WAL
        # contract (committed = logged) holds
        db = Database.open(tmp_path / "d")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.txn.fault_plan = FaultPlan("wal.fsync")
        with pytest.raises(FaultInjected):
            db.execute("INSERT INTO t VALUES (1)")
        db2 = reopen(tmp_path / "d", db)
        assert db2.query("SELECT id FROM t").rows == [[1]]


class TestDisabledPath:
    def test_no_durability_attribute_stays_none(self, db):
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.durability is None
        assert db.txn.wal is None

    def test_close_without_durability_is_noop(self, db):
        db.close()

    def test_double_attach_rejected(self, tmp_path):
        db = Database.open(tmp_path / "d")
        with pytest.raises(WalError):
            db.attach_durability(tmp_path / "d2")

"""The durable-state scrubber: ``verify_store`` / ``repro verify``.

An offline walk of the WAL CRC chain and snapshot header that reports
the first torn frame instead of silently truncating it at the next
open, and can quarantine the bad suffix to a sidecar for forensics.
"""

from __future__ import annotations

import shutil
import struct

import pytest

from repro.cli import run_verify
from repro.sqlengine import Database
from repro.sqlengine.resilience import verify_store
from repro.sqlengine.wal import SNAPSHOT_FILE, WAL_FILE


@pytest.fixture
def store(tmp_path):
    """A durable store with a snapshot and a committed WAL tail."""
    path = tmp_path / "db"
    db = Database.open(path)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.checkpoint()
    db.execute("INSERT INTO t VALUES (2)")
    db.execute("INSERT INTO t VALUES (3)")
    db.close(checkpoint=False)  # leave the WAL tail in place
    return path


def wal_path(store):
    return store / WAL_FILE


def test_clean_store_verifies_ok(store):
    report = verify_store(store)
    assert report.ok
    assert report.snapshot_present and report.snapshot_ok
    assert report.wal_present
    assert report.committed_transactions == 2
    assert report.corrupt_offset is None
    assert report.render().endswith("result: OK")


def test_online_verify_through_database(tmp_path):
    db = Database.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    report = db.verify()
    assert report.ok
    assert report.committed_transactions >= 1
    db.close()


def test_truncated_frame_reports_offset(store):
    data = wal_path(store).read_bytes()
    wal_path(store).write_bytes(data[:-3])  # tear the final frame
    report = verify_store(store)
    assert not report.ok
    assert report.corrupt_offset is not None
    assert report.corrupt_offset < len(data) - 3
    text = report.render()
    assert "torn or corrupt frame" in text
    assert text.endswith("result: CORRUPT")


def test_flipped_byte_reports_first_bad_frame(store):
    data = bytearray(wal_path(store).read_bytes())
    # corrupt one payload byte in the middle of the file: the CRC of
    # that frame no longer matches, everything before it stays intact
    target = len(data) // 2
    data[target] ^= 0xFF
    wal_path(store).write_bytes(bytes(data))
    report = verify_store(store)
    assert not report.ok
    assert report.corrupt_offset is not None
    assert report.corrupt_offset <= target
    assert report.frames >= 1  # the prefix before the flip still reads


def test_quarantine_moves_suffix_and_cleans_store(store):
    data = wal_path(store).read_bytes()
    torn = data[:-3]
    wal_path(store).write_bytes(torn)
    report = verify_store(store, quarantine=True)
    assert report.ok  # cleaned counts as clean
    assert report.quarantined_to is not None
    sidecar_bytes = (store / report.quarantined_to.rsplit("/", 1)[-1]).read_bytes()
    assert sidecar_bytes == torn[report.corrupt_offset :]
    assert wal_path(store).read_bytes() == torn[: report.corrupt_offset]
    # the truncated store verifies clean and reopens with the
    # committed prefix
    assert verify_store(store).ok
    db = Database.open(store)
    values = sorted(r[0] for r in db.table("t").rows)
    assert values[0] == 1 and set(values) <= {1, 2, 3}
    db.close()


def test_corrupt_snapshot_is_reported(store):
    snapshot = store / SNAPSHOT_FILE
    content = snapshot.read_bytes()
    snapshot.write_bytes(content[:-10])
    report = verify_store(store)
    assert not report.ok
    assert not report.snapshot_ok
    assert "result: CORRUPT" in report.render()


def test_stale_generation_wal_noted_not_failed(store, tmp_path):
    # a crash between checkpoint rename and WAL reset leaves the old
    # log beside the new snapshot; recovery ignores it, verify notes it
    old_wal = tmp_path / "old.wal"
    shutil.copy(wal_path(store), old_wal)
    db = Database.open(store)
    db.execute("INSERT INTO t VALUES (4)")
    db.checkpoint()
    db.close(checkpoint=False)
    shutil.copy(old_wal, wal_path(store))
    report = verify_store(store)
    assert report.stale_wal
    assert report.ok
    assert "stale log" in report.render()


def test_mismatched_ahead_generation_fails(store):
    # a WAL from a *later* generation than the snapshot cannot belong
    # to it: flag loudly instead of replaying foreign history
    data = wal_path(store).read_bytes()
    (length,) = struct.unpack_from("<I", data, 0)
    import json
    import zlib

    header = json.dumps(["walhdr", 999]).encode()
    frame = struct.pack("<II", len(header), zlib.crc32(header)) + header
    wal_path(store).write_bytes(frame + data[8 + length :])
    report = verify_store(store)
    assert not report.ok
    assert any("ahead of the snapshot" in p for p in report.problems)


def test_ahead_generation_snapshot_recovers_to_snapshot_state(store, tmp_path):
    """A snapshot from a *later* generation than the WAL beside it wins:
    verify notes the stale log, and recovery restores exactly the
    snapshot's state instead of replaying the older generation's tail."""
    old_wal = tmp_path / "old.wal"
    shutil.copy(wal_path(store), old_wal)
    db = Database.open(store)
    db.execute("INSERT INTO t VALUES (40)")
    db.checkpoint()  # snapshot generation moves ahead of old_wal's
    expected = sorted(r[0] for r in db.table("t").rows)
    db.close(checkpoint=False)
    shutil.copy(old_wal, wal_path(store))
    report = verify_store(store)
    assert report.ok and report.stale_wal
    db = Database.open(store)
    try:
        assert sorted(r[0] for r in db.table("t").rows) == expected
    finally:
        db.close(checkpoint=False)
    # recovery did not resurrect the stale log as live history
    assert verify_store(store).ok


def test_quarantine_sidecar_survives_clean_recovery(store):
    """The forensic sidecar is evidence: recovery, checkpoints, and a
    re-verify of the healed store must all leave it untouched."""
    data = wal_path(store).read_bytes()
    wal_path(store).write_bytes(data[:-3])
    report = verify_store(store, quarantine=True)
    assert report.ok and report.quarantined_to is not None
    sidecar = store / report.quarantined_to.rsplit("/", 1)[-1]
    evidence = sidecar.read_bytes()
    db = Database.open(store)  # clean recovery over the truncated WAL
    db.execute("INSERT INTO t VALUES (99)")
    db.checkpoint()
    db.close()
    assert sidecar.exists()
    assert sidecar.read_bytes() == evidence
    followup = verify_store(store)
    assert followup.ok
    # and a second quarantine pass has nothing to move
    assert verify_store(store, quarantine=True).quarantined_to is None


def test_empty_wal_with_garbage_has_no_intact_frames(store):
    wal_path(store).write_bytes(b"\x00garbage\xff" * 4)
    report = verify_store(store)
    assert not report.ok
    assert report.frames == 0


def test_torn_header_frame_quarantines_to_a_clean_store(store, capsys):
    """A WAL torn inside its first frame has no intact frame at all:
    quarantine moves every byte aside, and the emptied log passes, from
    the API and from the CLI."""
    data = wal_path(store).read_bytes()
    (length,) = struct.unpack_from("<I", data, 0)
    torn = data[: 8 + length - 1]
    wal_path(store).write_bytes(torn)
    report = verify_store(store, quarantine=True)
    assert report.ok, report.problems
    assert report.frames == 0 and report.corrupt_offset == 0
    assert wal_path(store).read_bytes() == b""
    sidecar = store / report.quarantined_to.rsplit("/", 1)[-1]
    assert sidecar.read_bytes() == torn

    wal_path(store).write_bytes(torn)
    assert run_verify(["--db", str(store), "--quarantine"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("result: OK")
    # the snapshot alone recovers: the torn log held nothing committed
    db = Database.open(store)
    assert [r[0] for r in db.table("t").rows] == [1]
    db.close(checkpoint=False)


def test_torn_header_frame_is_one_problem_until_quarantined(store, capsys):
    """Without quarantine the torn first frame is reported once, as the
    torn frame at byte 0, and the CLI exits 1."""
    data = wal_path(store).read_bytes()
    (length,) = struct.unpack_from("<I", data, 0)
    wal_path(store).write_bytes(data[: 8 + length - 1])
    report = verify_store(store)
    assert report.frames == 0 and report.corrupt_offset == 0
    assert len(report.problems) == 1
    assert "torn or corrupt frame at byte 0" in report.problems[0]
    assert report.render().count("FAIL:") == 1
    assert run_verify(["--db", str(store)]) == 1
    assert capsys.readouterr().out.rstrip().endswith("result: CORRUPT")
    # reporting alone moved nothing
    assert wal_path(store).read_bytes() == data[: 8 + length - 1]


def test_fresh_directory_verifies_ok(tmp_path):
    report = verify_store(tmp_path / "nothing-here")
    assert report.ok
    assert not report.snapshot_present and not report.wal_present


def test_cli_exit_codes(store, capsys):
    assert run_verify(["--db", str(store)]) == 0
    out = capsys.readouterr().out
    assert "result: OK" in out

    data = wal_path(store).read_bytes()
    wal_path(store).write_bytes(data[:-3])
    assert run_verify(["--db", str(store)]) == 1
    assert "result: CORRUPT" in capsys.readouterr().out

    # quarantine flips it back to success and leaves the sidecar behind
    assert run_verify(["--db", str(store), "--quarantine"]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert any(p.name.startswith(f"{WAL_FILE}.quarantine-")
               for p in store.iterdir())

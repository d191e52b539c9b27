"""WAL-shipping replication: bootstrap, streaming, failover, scrubbing.

Every test runs a real primary :class:`ReproServer` and (usually) a
real standby server with a :class:`StandbyManager` tailing it over the
actual wire protocol, inside ``asyncio.run`` (no pytest-asyncio in the
image).  Durable stores live under ``tmp_path``.
"""

import asyncio
import struct

import pytest

from repro.server import (
    ReproClient,
    ReproServer,
    ServerError,
    StandbyManager,
    fingerprint_divergence,
    fingerprints_at,
    store_fingerprints,
)
from repro.server.protocol import FrameError, FramedReader, encode_frame
from repro.server.replication import StandbyApplier
from repro.sqlengine.values import Date
from repro.temporal.stratum import TemporalStratum
from tests.sqlengine.test_derived_structures import assert_from_scratch


def run(coro):
    return asyncio.run(coro)


SETUP = (
    "CREATE TABLE pos (emp CHAR(20), title CHAR(30))",
    "ALTER TABLE pos ADD VALIDTIME",
    "INSERT INTO pos (emp, title) VALUES ('mia', 'eng')",
)


async def start_primary(path, setup=SETUP):
    stratum = TemporalStratum.open(path)
    server = ReproServer(stratum)
    host, port = await server.start()
    client = await ReproClient.connect(host, port)
    for sql in setup:
        await client.execute(sql)
    return stratum, server, client


async def start_standby(path, primary_server, **kwargs):
    stratum = TemporalStratum.open(path)
    server = ReproServer(stratum)
    await server.start()
    kwargs.setdefault("poll_wait", 0.5)
    manager = StandbyManager(
        server, primary_server.host, primary_server.port, **kwargs
    )
    await manager.start()
    client = await ReproClient.connect(server.host, server.port)
    return stratum, server, manager, client


def primary_seq(stratum):
    return stratum.db.durability.txn_counter


async def teardown(*pairs):
    """(client_or_None, server, stratum, checkpoint_bool) tuples."""
    for client, server, stratum, checkpoint in pairs:
        if client is not None:
            await client.close()
        await server.shutdown()
        stratum.db.close(checkpoint=checkpoint)


def test_bootstrap_catchup_and_replica_read(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        result = await sc.execute(
            "VALIDTIME SELECT emp, title FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        assert [r[:2] for r in result.rows] == [["mia", "eng"]]
        # every replica response names the csn its snapshot read through
        assert sc.last_applied_csn == primary_seq(p_stratum)
        status = await sc.request({"op": "repl_status"}, retryable=False)
        assert status["role"] == "standby"
        assert status["lag_csn"] == 0
        assert status["connected"] is True
        assert status["primary_alive"] is True
        await teardown(
            (sc, s_server, s_stratum, False), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_live_streaming_reaches_standby_without_reconnect(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        for name in ("bo", "ada", "lou"):
            await pc.execute(
                f"INSERT INTO pos (emp, title) VALUES ('{name}', 'x')"
            )
        result = await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        assert len(result.rows) == 4
        assert manager.reconnects == 0
        # a fresh gen-0 standby resumes from offset 0 (its local walhdr
        # is byte-identical to the primary's) — no snapshot bootstrap
        assert s_stratum.db.obs.value("replication.bootstraps") == 0
        await teardown(
            (sc, s_server, s_stratum, False), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_min_csn_lag_timeout_is_sqlstate_55000(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        with pytest.raises(ServerError) as excinfo:
            await sc.execute(
                "VALIDTIME SELECT emp FROM pos",
                min_csn=primary_seq(p_stratum) + 1000, wait=0.1,
            )
        assert excinfo.value.sqlstate == "55000"
        await teardown(
            (sc, s_server, s_stratum, False), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_standby_refuses_writes_with_25006(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        refused = (
            "INSERT INTO pos (emp, title) VALUES ('x', 'y')",
            "UPDATE pos SET title = 'z'",
            "DELETE FROM pos",
            "CREATE TABLE other (id INT)",
            "DROP TABLE pos",
            "EXPLAIN ANALYZE SELECT emp FROM pos",
        )
        for sql in refused:
            with pytest.raises(ServerError) as excinfo:
                await sc.execute(sql)
            assert excinfo.value.sqlstate == "25006", sql
        # reads, transactions of reads, and plain EXPLAIN still work
        await sc.execute("BEGIN")
        await sc.execute("SELECT emp FROM pos")
        await sc.execute("COMMIT")
        await sc.execute("EXPLAIN SELECT emp FROM pos")
        await teardown(
            (sc, s_server, s_stratum, False), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_reconnect_resumes_from_offset_without_double_apply(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server,
            reconnect_base_delay=0.01, reconnect_max_delay=0.05,
        )
        await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        # the primary dies mid-stream...
        port = p_server.port
        await pc.close()
        await p_server.shutdown()
        for _ in range(200):
            if not manager.connected:
                break
            await asyncio.sleep(0.01)
        # ...and comes back on the same address with more commits
        p_server2 = ReproServer(p_stratum, port=port)
        await p_server2.start()
        pc2 = await ReproClient.connect(p_server2.host, p_server2.port)
        await pc2.execute("INSERT INTO pos (emp, title) VALUES ('bo', 'mgr')")
        result = await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        # resume, not re-bootstrap, and no row applied twice
        assert sorted(r[0].strip() for r in result.rows) == ["bo", "mia"]
        assert s_stratum.db.obs.value("replication.bootstraps") == 0
        assert manager.reconnects >= 1
        assert s_stratum.db.obs.value("replication.reconnects") >= 1
        await teardown(
            (sc, s_server, s_stratum, False),
            (pc2, p_server2, p_stratum, True),
        )

    run(scenario())


def test_promote_bumps_generation_and_accepts_writes(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        old_generation = s_stratum.db.durability.generation
        response = await sc.request({"op": "promote"}, retryable=False)
        assert response["ok"]
        assert response["generation"] > old_generation
        assert s_server.standby is None
        # writes flow now, and a second promote is refused
        await sc.execute("INSERT INTO pos (emp, title) VALUES ('zo', 'ops')")
        result = await sc.execute("VALIDTIME SELECT emp FROM pos")
        assert len(result.rows) == 2
        refused = await sc.request({"op": "promote"}, retryable=False)
        assert not refused["ok"]
        await teardown(
            (sc, s_server, s_stratum, True), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_primary_checkpoint_forces_standby_resync(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        # checkpoint resets the primary's WAL and bumps its generation:
        # the standby's next chunk request must come back `resync`
        await p_server._db(p_stratum.checkpoint)
        await pc.execute("INSERT INTO pos (emp, title) VALUES ('bo', 'mgr')")
        result = await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        assert sorted(r[0].strip() for r in result.rows) == ["bo", "mia"]
        assert s_stratum.db.obs.value("replication.bootstraps") >= 1
        assert (
            s_stratum.db.durability.generation
            == p_stratum.db.durability.generation
        )
        await teardown(
            (sc, s_server, s_stratum, False), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_fingerprints_match_and_detect_divergence(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        s_stratum, s_server, manager, sc = await start_standby(
            tmp_path / "s", p_server
        )
        await sc.execute(
            "VALIDTIME SELECT emp FROM pos",
            min_csn=primary_seq(p_stratum), wait=10.0,
        )
        remote = await sc.request({"op": "repl_fingerprint"}, retryable=False)
        local = await pc.request({"op": "repl_fingerprint"}, retryable=False)
        assert fingerprint_divergence(local, remote) == []
        # a divergent standby is caught: flip one cell behind MVCC's back
        table = s_stratum.db.catalog.get_table("pos")
        tampered = dict(remote)
        tampered["tables"] = dict(remote["tables"])
        tampered["tables"]["pos"] = "0" * 64
        problems = fingerprint_divergence(local, tampered)
        assert any("pos" in p for p in problems)
        # and mismatched sequence numbers refuse to compare at all
        stale = dict(remote)
        stale["commit_seq"] = (remote["commit_seq"] or 0) + 7
        problems = fingerprint_divergence(local, stale)
        assert any("not comparable" in p for p in problems)
        assert table is not None
        await teardown(
            (sc, s_server, s_stratum, False), (pc, p_server, p_stratum, True)
        )

    run(scenario())


def test_fingerprints_at_replays_store_to_common_seq(tmp_path):
    async def scenario():
        p_stratum, p_server, pc = await start_primary(tmp_path / "p")
        seq_before = primary_seq(p_stratum)
        before = store_fingerprints(p_stratum.db, p_stratum)
        await pc.execute("INSERT INTO pos (emp, title) VALUES ('bo', 'mgr')")
        await pc.close()
        await p_server.shutdown()
        p_stratum.db.close(checkpoint=False)
        # offline, capped at the pre-insert seq: matches the old state
        capped = fingerprints_at(tmp_path / "p", seq_before)
        assert capped["commit_seq"] == seq_before
        assert fingerprint_divergence(capped, before) == []
        full = fingerprints_at(tmp_path / "p", seq_before + 1)
        assert full["commit_seq"] == seq_before + 1
        assert fingerprint_divergence(full, before) != []

    run(scenario())


def test_a_standby_carries_derived_structures(tmp_path):
    """Replay writes through the primitives a statement writes with, so
    a standby carries its hash, interval and columnar structures forward
    by deltas: 60 single-row UPDATE commits, each followed by a keyed
    read, build nothing after the warm-up (the parent of this change
    rebuilt the hash index after every applied commit: 60 builds)."""
    primary = TemporalStratum.open(tmp_path / "p", auto_checkpoint_bytes=1 << 40)
    primary.db.execute(
        "CREATE TABLE acct (id INTEGER, balance INTEGER,"
        " begin_time DATE, end_time DATE)"
    )
    primary.execute("ALTER TABLE acct ADD VALIDTIME")
    primary.db.now = Date.from_ymd(2010, 1, 1)
    primary.execute(
        "INSERT INTO acct (id, balance) VALUES "
        + ", ".join(f"({n}, 0)" for n in range(300))
    )
    primary.db.now = Date.from_ymd(2010, 6, 1)
    boundaries = [primary.db.durability.wal_size()]
    for n in range(60):
        primary.execute(f"UPDATE acct SET balance = {n + 1} WHERE id = {n * 5}")
        boundaries.append(primary.db.durability.wal_size())
    wal_bytes = (tmp_path / "p" / "wal.log").read_bytes()

    standby = TemporalStratum.open(tmp_path / "s")
    applier = StandbyApplier(standby)
    applier.enter_replica_mode()
    applier.feed(0, wal_bytes[:boundaries[0]])
    obs, table = standby.db.obs, standby.db.table("acct")

    def keyed_read(key):
        return standby.execute(f"SELECT balance FROM acct WHERE id = {key}").rows

    # warm-up: the read's hash index, and every other structure a reader
    # can obtain (the interval index and column store included)
    assert keyed_read(0) == [[0]]
    assert_from_scratch(table)
    kinds = ("hash", "interval", "columnar")
    builds = {kind: obs.value(f"engine.derived.builds.{kind}") for kind in kinds}
    for n in range(60):
        applier.feed(boundaries[n], wal_bytes[boundaries[n]:boundaries[n + 1]])
        assert keyed_read(n * 5) == [[n + 1]]
    assert applier.applied_csn == primary_seq(primary)
    assert {
        kind: obs.value(f"engine.derived.builds.{kind}") for kind in kinds
    } == builds
    assert obs.value("engine.derived.deltas") > 0
    assert_from_scratch(table)
    assert fingerprint_divergence(
        store_fingerprints(standby.db, standby),
        store_fingerprints(primary.db, primary),
    ) == []
    standby.close(checkpoint=False)
    primary.close(checkpoint=False)


def test_rid_echo_on_responses_and_errors(tmp_path):
    async def scenario():
        stratum, server, client = await start_primary(tmp_path / "p")
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        framed = FramedReader(reader)
        writer.write(encode_frame(
            {"op": "execute", "sql": "SELECT emp FROM pos", "rid": 41}
        ))
        writer.write(encode_frame({"op": "nonsense", "rid": 42}))
        await writer.drain()
        ok = await framed.read()
        bad = await framed.read()
        assert ok["ok"] and ok["rid"] == 41
        assert not bad["ok"] and bad["rid"] == 42
        writer.close()
        await teardown((client, server, stratum, True))

    run(scenario())


def test_frame_error_reports_stream_offset(tmp_path):
    async def scenario():
        # two clean frames, then a torn header: the error must name the
        # byte offset the bad frame began at, not asyncio internals
        good = encode_frame({"op": "ping"})
        reader = asyncio.StreamReader()
        reader.feed_data(good + good + b"\x00\x01")
        reader.feed_eof()
        framed = FramedReader(reader)
        assert await framed.read() == {"op": "ping"}
        assert await framed.read() == {"op": "ping"}
        with pytest.raises(FrameError) as excinfo:
            await framed.read()
        assert f"stream offset {2 * len(good)}" in str(excinfo.value)
        assert excinfo.value.offset == 2 * len(good)

    run(scenario())


def test_oversized_response_reported_as_54000_not_a_dead_socket():
    async def scenario():
        stratum = TemporalStratum()
        stratum.execute("CREATE TABLE big (v VARCHAR(4000000))")
        blob = "x" * 3_000_000
        for _ in range(4):
            stratum.execute(f"INSERT INTO big VALUES ('{blob}')")
        server = ReproServer(stratum)
        await server.start()
        client = await ReproClient.connect(server.host, server.port)
        with pytest.raises(ServerError) as excinfo:
            await client.execute("SELECT v FROM big")
        assert excinfo.value.sqlstate == "54000"
        # the connection survived: a reasonable statement still works
        result = await client.execute("SELECT COUNT(*) FROM big")
        assert result.scalar() == 4
        assert stratum.db.obs.value("server.frame_errors") == 0
        await client.close()
        await server.shutdown()

    run(scenario())


def test_cli_verify_against_running_node(tmp_path, capsys):
    """``repro verify --db COPY --against HOST:PORT`` — the cross-node
    scrub.  The CLI drives its own event loop, so the node under test
    runs in a background thread."""
    import queue
    import shutil
    import threading

    from repro.cli import run_verify

    stratum = TemporalStratum.open(tmp_path / "p")
    for sql in SETUP:
        stratum.execute(sql)

    ready: "queue.Queue" = queue.Queue()
    done = threading.Event()

    def serve():
        async def main():
            server = ReproServer(stratum)
            await server.start()
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            ready.put((server.host, server.port, loop, stop))
            await server.serve_until(stop)

        asyncio.run(main())
        done.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port, loop, stop = ready.get(timeout=10)
    try:
        # an identical copy at the same seq: consistent, exit 0
        shutil.copytree(tmp_path / "p", tmp_path / "copy")
        code = run_verify(
            ["--db", str(tmp_path / "copy"), "--against", f"{host}:{port}",
             "--wait", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "consistent with" in out

        # the node moves ahead; the stale copy can no longer reach a
        # common sequence number: exit 2, not a false "diverged"
        async def advance():
            client = await ReproClient.connect(host, port, reconnect=False)
            await client.execute(
                "INSERT INTO pos (emp, title) VALUES ('bo', 'mgr')"
            )
            await client.close()

        future = asyncio.run_coroutine_threadsafe(advance(), loop)
        future.result(timeout=10)
        code = run_verify(
            ["--db", str(tmp_path / "copy"), "--against", f"{host}:{port}",
             "--wait", "0.5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no common commit sequence" in err
    finally:
        loop.call_soon_threadsafe(stop.set)
        done.wait(timeout=10)
        stratum.db.close()


def test_client_auto_reconnects_reads_after_server_restart(tmp_path):
    async def scenario():
        stratum, server, client = await start_primary(tmp_path / "p")
        port = server.port
        result = await client.execute("SELECT COUNT(*) FROM pos")
        assert result.scalar() == 1
        await server.shutdown()
        server2 = ReproServer(stratum, port=port)
        await server2.start()
        # the read-only statement is silently retried on a new link
        result = await client.execute("SELECT COUNT(*) FROM pos")
        assert result.scalar() == 1
        assert client.reconnects == 1
        await teardown((client, server2, stratum, True))

    run(scenario())


def test_client_refuses_to_retry_writes_and_open_transactions(tmp_path):
    async def scenario():
        from repro.server import ConnectionLostError

        stratum, server, client = await start_primary(tmp_path / "p")
        port = server.port
        await server.shutdown()
        server2 = ReproServer(stratum, port=port)
        await server2.start()
        with pytest.raises(ConnectionLostError):
            await client.execute(
                "INSERT INTO pos (emp, title) VALUES ('x', 'y')"
            )
        # a drop inside an explicit transaction surfaces even for reads
        await client.execute("BEGIN")
        await client.execute("SELECT COUNT(*) FROM pos")
        await server2.shutdown()
        server3 = ReproServer(stratum, port=port)
        await server3.start()
        with pytest.raises(ConnectionLostError):
            await client.execute("SELECT COUNT(*) FROM pos")
        await teardown((client, server3, stratum, True))

    run(scenario())

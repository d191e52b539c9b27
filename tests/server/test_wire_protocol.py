"""Wire-protocol edge cases: torn frames, oversized frames, abrupt
disconnects, and per-session timeout isolation.

Each test spins up a real :class:`ReproServer` on an ephemeral port
inside ``asyncio.run`` (no pytest-asyncio in the image) and talks to it
with either the client library or a raw socket, depending on how badly
it needs to misbehave.
"""

import asyncio
import struct

import pytest

from repro.server import MAX_FRAME_BYTES, ReproClient, ReproServer, ServerError
from repro.server.protocol import FrameError, encode_frame, read_frame
from repro.temporal.stratum import TemporalStratum


def run(coro):
    return asyncio.run(coro)


async def start_server(setup_sql=()):
    stratum = TemporalStratum()
    for sql in setup_sql:
        stratum.execute(sql)
    server = ReproServer(stratum)
    host, port = await server.start()
    return stratum, server, host, port


SETUP = (
    "CREATE TABLE t (id INT, v VARCHAR(10))",
    "INSERT INTO t VALUES (1, 'a')",
)


def test_frame_roundtrip_and_split_delivery():
    async def scenario():
        # a frame delivered one byte at a time must still parse
        message = {"op": "execute", "sql": "SELECT 1"}
        data = encode_frame(message)
        reader = asyncio.StreamReader()
        for i in range(len(data)):
            reader.feed_data(data[i:i + 1])
        reader.feed_eof()
        assert await read_frame(reader) == message
        assert await read_frame(reader) is None  # clean EOF after

    run(scenario())


def test_torn_header_and_torn_payload_raise():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"\x00\x00")  # half a header
        reader.feed_eof()
        with pytest.raises(FrameError, match="mid-header"):
            await read_frame(reader)

        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack(">I", 100) + b"{\"op\":")  # truncated
        reader.feed_eof()
        with pytest.raises(FrameError, match="mid-payload"):
            await read_frame(reader)

    run(scenario())


def test_oversized_frame_rejected_without_reading_it():
    async def scenario():
        _, server, host, port = await start_server()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
        await writer.drain()
        response = await read_frame(reader)
        assert response is not None and not response["ok"]
        assert "exceeds" in response["error"]
        # the server dropped the connection after reporting
        assert await read_frame(reader) is None
        writer.close()
        await server.shutdown()

    run(scenario())


def test_non_json_payload_rejected():
    async def scenario():
        _, server, host, port = await start_server()
        reader, writer = await asyncio.open_connection(host, port)
        junk = b"\xff\xfenot json"
        writer.write(struct.pack(">I", len(junk)) + junk)
        await writer.drain()
        response = await read_frame(reader)
        assert response is not None and not response["ok"]
        writer.close()
        await server.shutdown()

    run(scenario())


def test_abrupt_disconnect_mid_txn_rolls_back_and_unpins():
    async def scenario():
        stratum, server, host, port = await start_server(SETUP)
        db = stratum.db
        dropper = await ReproClient.connect(host, port)
        watcher = await ReproClient.connect(host, port)
        await dropper.execute("BEGIN")
        await dropper.execute("UPDATE t SET v = 'gone' WHERE id = 1")
        assert db.mvcc.pins
        # kill the socket without COMMIT or quit
        dropper._writer.close()
        # the surviving session sees the pre-image once the server
        # finishes tearing the dead session down
        for _ in range(100):
            result = await watcher.execute("SELECT v FROM t WHERE id = 1")
            if db.mvcc.quiescent():
                break
            await asyncio.sleep(0.01)
        assert result.rows == [["a"]]
        assert db.mvcc.quiescent()
        await watcher.close()
        await server.shutdown()
        # with every session gone, MVCC collapses to dormant: no pins,
        # no version chains left behind
        assert not db.mvcc.multi
        assert not db.mvcc.pins

    run(scenario())


def test_timeout_of_one_session_leaves_others_unaffected():
    async def scenario():
        stratum, server, host, port = await start_server(SETUP)
        limited = await ReproClient.connect(host, port)
        relaxed = await ReproClient.connect(host, port)
        await limited.set_timeout(1e-9)  # expires immediately
        with pytest.raises(ServerError) as excinfo:
            await limited.execute("SELECT COUNT(*) FROM t")
        assert excinfo.value.sqlstate == "57014"
        # the other session's statements still run with no deadline
        result = await relaxed.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 1
        # and clearing it restores the limited session too
        await limited.set_timeout(None)
        result = await limited.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 1
        # the server-side default was never touched
        assert stratum.db.resilience.statement_timeout is None
        await limited.close()
        await relaxed.close()
        await server.shutdown()

    run(scenario())


def test_serialization_error_carries_sqlstate_over_the_wire():
    async def scenario():
        _, server, host, port = await start_server(SETUP)
        writer_c = await ReproClient.connect(host, port)
        victim = await ReproClient.connect(host, port)
        await writer_c.execute("BEGIN")
        await writer_c.execute("UPDATE t SET v = 'w' WHERE id = 1")
        with pytest.raises(ServerError) as excinfo:
            await victim.execute("UPDATE t SET v = 'v' WHERE id = 1")
        assert excinfo.value.sqlstate == "40001"
        await writer_c.execute("COMMIT")
        # the classic client retry succeeds now
        await victim.execute("UPDATE t SET v = 'v' WHERE id = 1")
        result = await victim.execute("SELECT v FROM t WHERE id = 1")
        assert result.rows == [["v"]]
        await writer_c.close()
        await victim.close()
        await server.shutdown()

    run(scenario())


def test_explain_refuses_what_execution_refuses_over_the_wire():
    """EXPLAIN prepares the statement exactly as execution does, so a
    statement the stratum refuses comes back as the same error frame
    (message and SQLSTATE) with or without EXPLAIN — it used to render a
    plan — and the session carries on."""
    setup = (
        "CREATE TABLE item (id INT, price FLOAT)",
        "ALTER TABLE item ADD VALIDTIME",
        "INSERT INTO item (id, price) VALUES (1, 2.0)",
        "CREATE TABLE ledger (id INT, amount FLOAT)",
        "ALTER TABLE ledger ADD TRANSACTIONTIME",
    )
    refused = (
        "TRANSACTIONTIME UPDATE ledger SET amount = 1",
        "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01'] DELETE FROM ledger",
        "INSERT INTO item VALUES (2, 3.0)",  # 0A000: no column list
    )

    async def scenario():
        _, server, host, port = await start_server(setup)
        client = await ReproClient.connect(host, port)
        for sql in refused:
            frames = []
            for prefix in ("", "EXPLAIN ", "EXPLAIN ANALYZE "):
                with pytest.raises(ServerError) as excinfo:
                    await client.execute(prefix + sql)
                frames.append((str(excinfo.value), excinfo.value.sqlstate))
            assert frames[1] == frames[2] == frames[0]
        assert frames[0][1] == "0A000"
        # the same connection still serves, temporal EXPLAIN included
        plan = await client.execute("EXPLAIN VALIDTIME SELECT id FROM item")
        assert "\nstrategy: " in plan
        result = await client.execute("SELECT COUNT(*) FROM item")
        assert result.scalar() == 1
        await client.close()
        await server.shutdown()

    run(scenario())


def test_unknown_label_in_a_routine_is_a_typed_error_over_the_wire():
    """``LEAVE nosuch`` used to leave ``execute`` as a private Python
    exception of the interpreter: no error frame, and the connection
    handler died with it.  It is a ``RoutineError`` of the routine's
    compilation now — an ordinary error frame — and the session goes on."""
    setup = SETUP + (
        "CREATE PROCEDURE p () LANGUAGE SQL BEGIN"
        " lp: LOOP INSERT INTO t VALUES (2, 'b'); LEAVE nosuch; END LOOP lp;"
        " END",
    )

    async def scenario():
        _, server, host, port = await start_server(setup)
        client = await ReproClient.connect(host, port)
        with pytest.raises(ServerError, match="'nosuch'.* in p: LEAVE nosuch"):
            await client.execute("CALL p()")
        # nothing of the statement stayed, and the same session serves on
        result = await client.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 1
        await client.execute("INSERT INTO t VALUES (3, 'c')")
        result = await client.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 2
        await client.close()
        await server.shutdown()

    run(scenario())


def test_snapshot_csn_reported_per_statement():
    async def scenario():
        _, server, host, port = await start_server(SETUP)
        a = await ReproClient.connect(host, port)
        b = await ReproClient.connect(host, port)
        await b.execute("BEGIN")
        await b.execute("SELECT v FROM t WHERE id = 1")
        pinned = b.last_snapshot
        await a.execute("UPDATE t SET v = 'x' WHERE id = 1")
        await a.execute("SELECT v FROM t WHERE id = 1")
        assert a.last_snapshot > pinned  # fresh snapshot saw the commit
        await b.execute("SELECT v FROM t WHERE id = 1")
        assert b.last_snapshot == pinned  # pinned transaction held its csn
        await b.execute("COMMIT")
        await a.close()
        await b.close()
        await server.shutdown()

    run(scenario())


def test_graceful_shutdown_rejects_new_connections():
    async def scenario():
        _, server, host, port = await start_server(SETUP)
        client = await ReproClient.connect(host, port)
        result = await client.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 1
        await client.close()
        await server.shutdown()
        with pytest.raises(OSError):
            await asyncio.open_connection(host, port)

    run(scenario())

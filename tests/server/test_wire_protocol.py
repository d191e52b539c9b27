"""Wire-protocol edge cases: torn frames, oversized frames and
responses, request-id echo, abrupt disconnects, per-session timeout
isolation, and what the client may resend after a reconnect.

Each test spins up a real :class:`ReproServer` on an ephemeral port
inside ``asyncio.run`` (no pytest-asyncio in the image) and talks to it
with either the client library or a raw socket, depending on how badly
it needs to misbehave.
"""

import asyncio
import struct

import pytest

from repro.server import (
    MAX_FRAME_BYTES,
    ConnectionLostError,
    ReproClient,
    ReproServer,
    ServerError,
)
from repro.server.protocol import FrameError, FramedReader, encode_frame
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

# a durable store with one valid-time table (``start_primary``); the
# reconnection tests restart its server on the same port
DURABLE_SETUP = (
    "CREATE TABLE pos (emp CHAR(20), title CHAR(30))",
    "ALTER TABLE pos ADD VALIDTIME",
    "INSERT INTO pos (emp, title) VALUES ('mia', 'eng')",
)


async def start_primary(path, setup=DURABLE_SETUP):
    stratum = TemporalStratum.open(path)
    server = ReproServer(stratum)
    host, port = await server.start()
    client = await ReproClient.connect(host, port)
    for sql in setup:
        await client.execute(sql)
    return stratum, server, client


async def teardown(*pairs):
    """(client_or_None, server, stratum, checkpoint_bool) tuples."""
    for client, server, stratum, checkpoint in pairs:
        if client is not None:
            await client.close()
        await server.shutdown()
        stratum.db.close(checkpoint=checkpoint)


def test_frame_roundtrip_and_split_delivery():
    async def scenario():
        # a frame delivered one byte at a time must still parse
        message = {"op": "execute", "sql": "SELECT 1"}
        data = encode_frame(message)
        reader = asyncio.StreamReader()
        for i in range(len(data)):
            reader.feed_data(data[i:i + 1])
        reader.feed_eof()
        framed = FramedReader(reader)
        assert await framed.read() == message
        assert await framed.read() is None  # clean EOF after

    run(scenario())


def test_torn_header_and_torn_payload_raise():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"\x00\x00")  # half a header
        reader.feed_eof()
        with pytest.raises(FrameError, match="mid-header"):
            await FramedReader(reader).read()

        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack(">I", 100) + b"{\"op\":")  # truncated
        reader.feed_eof()
        with pytest.raises(FrameError, match="mid-payload"):
            await FramedReader(reader).read()

    run(scenario())


def test_oversized_frame_rejected_without_reading_it():
    async def scenario():
        _, server, host, port = await start_server()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
        await writer.drain()
        framed = FramedReader(reader)
        response = await framed.read()
        assert response is not None and not response["ok"]
        assert "exceeds" in response["error"]
        # the server dropped the connection after reporting
        assert await framed.read() is None
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
        response = await FramedReader(reader).read()
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
        # 0A000: a sequenced modification that reads its own dimension
        "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
        " UPDATE item SET price = (SELECT MAX(price) FROM item)",
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


@pytest.mark.parametrize(
    "opening",
    [
        ("START TRANSACTION",),
        ("BEGIN", "SAVEPOINT s", "ROLLBACK TO SAVEPOINT s"),
    ],
    ids=["start-transaction", "rollback-to-savepoint"],
)
def test_client_knows_a_transaction_whatever_verb_opened_or_kept_it(
    tmp_path, opening
):
    """The client takes its transaction state from the server's
    responses, not from the statement's first word: a transaction opened
    by ``START TRANSACTION``, or still open after ``ROLLBACK TO
    SAVEPOINT``, makes a dropped read surface instead of being resent in
    a fresh session outside the transaction."""

    async def scenario():
        stratum, server, client = await start_primary(tmp_path / "p")
        port = server.port
        for sql in opening:
            await client.execute(sql)
        # an error response keeps the transaction open, and says so
        with pytest.raises(ServerError):
            await client.execute("SELECT emp FROM nosuch")
        await client.execute("SELECT COUNT(*) FROM pos")
        await server.shutdown()
        server2 = ReproServer(stratum, port=port)
        await server2.start()
        with pytest.raises(ConnectionLostError):
            await client.execute("SELECT COUNT(*) FROM pos")
        assert client.reconnects == 0
        await teardown((client, server2, stratum, True))

    run(scenario())

"""WAL-shipping replication: primary source, standby applier, failover.

The design leans entirely on invariants the durability layer already
maintains:

* ``commit_buffered`` appends whole transactions — ``begin`` frames,
  redo records, one ``commit`` frame carrying the transaction sequence
  number and the clock — in a single write.  Every byte on the
  primary's disk is therefore committed, and any *frame-aligned prefix*
  of the file is a valid redo stream.
* The commit sequence number (``DurabilityManager.txn_counter``) is
  durable, monotone, and stamped into both commit frames and
  checkpoints, so it doubles as the replication position: a standby
  that has applied commit ``N`` reports ``applied_csn = N``.
* The standby keeps its local ``wal.log`` a **verbatim byte prefix** of
  the primary's: shipped bytes land with :meth:`append_replicated`
  before they are applied in memory.  Resume-from-offset after any
  disconnect is then trivial — the resume point *is* the local file
  size — a crashed standby recovers through the ordinary
  :mod:`~repro.sqlengine.recovery` path, and the offline scrubber
  (``repro verify``) works on a standby store unchanged.
* Apply goes through :func:`recovery.apply_committed` — crash
  recovery's own group applier, which writes with the logged row
  primitives — under the root transaction.  The primitives claim what
  they write, so standby reader sessions keep real snapshot isolation
  while the applier streams commits in under them, and derived
  structures are carried forward by deltas as on the primary.

A checkpoint on the primary bumps the WAL generation and resets the
file; the standby detects the generation change in the next chunk
response and re-bootstraps from the shipped snapshot.  Promotion
(``repro promote``) folds the applied state into a local checkpoint —
bumping the generation so the dead primary's log can never be confused
with the new timeline — and only then lifts the read-only gate.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

from repro.sqlengine.errors import ReplicationError
from repro.sqlengine.recovery import (
    _apply_snapshot,
    apply_committed,
    committed_groups,
)
from repro.sqlengine.values import Date
from repro.sqlengine.wal import read_frames

# chunk sizes are chosen so a base64-encoded chunk (~4/3×) stays well
# under the 8 MiB wire-frame cap
WAL_CHUNK_BYTES = 1 << 20
SNAPSHOT_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# fingerprints (divergence scrubbing)
# ---------------------------------------------------------------------------


def store_fingerprints(db, stratum=None) -> dict[str, Any]:
    """Per-table content hashes plus registry/clock state.

    Routines are deliberately excluded: a standby serving sequenced
    queries installs transform-routine clones locally, which are
    semantically derived state, not replicated state.
    """
    tables = {}
    for table in sorted(db.catalog.tables(), key=lambda t: t.name.lower()):
        if table.temporary:
            continue
        digest = hashlib.sha256()
        spec = [
            [
                [c.name, c.type.name, c.not_null, c.primary_key]
                for c in table.columns
            ],
            [[_printable(v) for v in row] for row in table.rows],
        ]
        digest.update(
            json.dumps(spec, separators=(",", ":")).encode("utf-8")
        )
        tables[table.name.lower()] = digest.hexdigest()
    registries: dict[str, list] = {}
    if stratum is not None:
        for dim, registry in (
            ("vt", stratum.registry),
            ("tt", stratum.tt_registry),
        ):
            registries[dim] = sorted(
                [info.name.lower(), info.begin_column, info.end_column]
                for info in registry.infos()
            )
    manager = db.durability
    return {
        "commit_seq": manager.txn_counter if manager is not None else None,
        "generation": manager.generation if manager is not None else None,
        "now": db.now.ordinal,
        "tables": tables,
        "registries": registries,
    }


def _printable(value: Any) -> Any:
    from repro.sqlengine.values import Null

    if value is Null:
        return None
    if isinstance(value, Date):
        return {"d": value.ordinal}
    return value


def fingerprint_divergence(
    local: dict[str, Any], remote: dict[str, Any]
) -> list[str]:
    """Compare two fingerprint dicts taken at the same commit_seq."""
    problems = []
    if local.get("commit_seq") != remote.get("commit_seq"):
        problems.append(
            f"fingerprints are not comparable: local commit_seq"
            f" {local.get('commit_seq')} vs remote {remote.get('commit_seq')}"
        )
        return problems
    if local["now"] != remote["now"]:
        problems.append(
            f"CURRENT_DATE diverged: local ordinal {local['now']}"
            f" vs remote {remote['now']}"
        )
    local_tables, remote_tables = local["tables"], remote["tables"]
    for name in sorted(set(local_tables) | set(remote_tables)):
        if name not in local_tables:
            problems.append(f"table {name!r} exists only on the remote")
        elif name not in remote_tables:
            problems.append(f"table {name!r} exists only locally")
        elif local_tables[name] != remote_tables[name]:
            problems.append(f"table {name!r} content hash diverged")
    if local.get("registries") and remote.get("registries"):
        if local["registries"] != remote["registries"]:
            problems.append("temporal registries diverged")
    return problems


def fingerprints_at(store_path, commit_seq: int) -> dict[str, Any]:
    """Offline fingerprints of a durable store *as of* ``commit_seq``.

    The store directory is copied aside and recovered with a replay
    cap, so a live (or just-killed) node's files are never touched and
    commits past the common sequence number are ignored.
    """
    from repro.temporal.stratum import TemporalStratum

    source = Path(store_path)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        copy = Path(tmp) / "store"
        shutil.copytree(source, copy)
        stratum = TemporalStratum.open(copy, replay_cap=commit_seq)
        try:
            return store_fingerprints(stratum.db, stratum)
        finally:
            stratum.close(checkpoint=False)


# ---------------------------------------------------------------------------
# primary side
# ---------------------------------------------------------------------------


class ReplicationSource:
    """Serves the primary's WAL (and checkpoint) to standbys.

    Chunk/handshake/fingerprint methods run on the server's worker
    thread — they touch engine state; :meth:`wait_for_commit` runs on
    the event loop, woken by the durability manager's post-commit hook,
    which is what turns the request/response protocol into long-poll
    streaming.
    """

    def __init__(self, db, loop: asyncio.AbstractEventLoop) -> None:
        if db.durability is None:
            raise ReplicationError(
                "replication requires an attached durable store"
            )
        self.db = db
        self.manager = db.durability
        self._loop = loop
        self._commit_event = asyncio.Event()
        self.manager.on_commit.append(self._commit_hook)

    def _commit_hook(self) -> None:  # worker thread → loop
        self._loop.call_soon_threadsafe(self._commit_event.set)

    async def wait_for_commit(self, timeout: float) -> None:
        """Block (on the loop) until a commit lands or ``timeout``."""
        self._commit_event.clear()
        try:
            await asyncio.wait_for(self._commit_event.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    # -- worker-thread request handlers ---------------------------------

    def status(self) -> dict[str, Any]:
        manager = self.manager
        return {
            "generation": manager.generation,
            "wal_size": manager.wal_size(),
            "commit_seq": manager.txn_counter,
        }

    def handshake(self, generation: Any, offset: Any) -> dict[str, Any]:
        """Decide how a standby at (generation, offset) catches up."""
        status = self.status()
        if (
            generation == status["generation"]
            and isinstance(offset, int)
            and 0 <= offset <= status["wal_size"]
        ):
            mode = "resume"
        else:
            mode = "snapshot"
        snapshot_path = self.manager.snapshot_path
        status["mode"] = mode
        status["snapshot_size"] = (
            snapshot_path.stat().st_size if snapshot_path.exists() else 0
        )
        return status

    def wal_chunk(
        self, generation: Any, offset: Any, limit: int = WAL_CHUNK_BYTES
    ) -> dict[str, Any]:
        status = self.status()
        if generation != status["generation"]:
            # a checkpoint reset the log: the standby must re-bootstrap
            status["resync"] = True
            status["data"] = ""
            return status
        data = self.manager.read_wal_range(
            int(offset), min(int(limit), WAL_CHUNK_BYTES)
        )
        status["resync"] = False
        status["offset"] = int(offset)
        status["data"] = base64.b64encode(data).decode("ascii")
        if data:
            self.db.obs.inc("replication.frames_shipped", 1)
            self.db.obs.inc("replication.bytes_shipped", len(data))
        return status

    def snapshot_chunk(
        self, offset: Any, limit: int = SNAPSHOT_CHUNK_BYTES
    ) -> dict[str, Any]:
        status = self.status()
        path = self.manager.snapshot_path
        raw = path.read_bytes() if path.exists() else b""
        chunk = raw[int(offset) : int(offset) + min(int(limit), SNAPSHOT_CHUNK_BYTES)]
        status["size"] = len(raw)
        status["offset"] = int(offset)
        status["data"] = base64.b64encode(chunk).decode("ascii")
        self.db.obs.inc("replication.snapshot_chunks_shipped", 1)
        return status

    def fingerprints(self, stratum=None) -> dict[str, Any]:
        return store_fingerprints(self.db, stratum)


# ---------------------------------------------------------------------------
# standby side: the applier state machine
# ---------------------------------------------------------------------------


class StandbyApplier:
    """Transport-agnostic standby state machine (worker thread only).

    Feed it ``(start_offset, bytes)`` batches in any chaotic order:
    duplicated prefixes are trimmed against the local WAL size, gaps
    raise a (recoverable) :class:`ReplicationError` so the caller
    re-requests from :attr:`applied_offset`, torn tails are simply not
    applied.  Only *complete* ``begin..commit`` groups take effect, and
    each lands on the local disk **before** it mutates memory — a crash
    at any point recovers through the ordinary recovery path to exactly
    the applied prefix.
    """

    def __init__(self, stratum) -> None:
        self.stratum = stratum
        self.db = stratum.db
        if self.db.durability is None:
            raise ReplicationError("a standby needs an attached durable store")
        self.manager = self.db.durability
        # plain-int mirrors, safe for cross-thread reads from the loop
        self.applied_offset = self.manager.wal_size()
        self.applied_csn = self.manager.txn_counter
        self.commits_applied = 0
        self.poisoned = False
        self.promoted = False

    # -- replica mode ----------------------------------------------------

    def enter_replica_mode(self) -> None:
        """Make the store read-only for every session but the applier's.

        Sessions get ``txn.wal = None`` so nothing they do (transform
        clone installs in particular) can append to the local WAL and
        break the byte-prefix invariant.
        """
        db = self.db
        db.mvcc.read_only = True
        db.root_txn.wal = None
        for txn in db._session_txns:
            txn.wal = None

    def exit_replica_mode(self) -> None:
        db = self.db
        db.mvcc.read_only = False
        db.root_txn.wal = self.manager
        for txn in db._session_txns:
            txn.wal = self.manager

    # -- the feed --------------------------------------------------------

    def feed(self, start_offset: int, data: bytes) -> int:
        """Ingest one shipped batch; returns bytes durably applied."""
        if self.poisoned:
            raise ReplicationError(
                "standby applier is poisoned by an earlier apply failure;"
                " restart the standby to recover from its local WAL"
            )
        local = self.applied_offset
        if start_offset > local:
            raise ReplicationError(
                f"gap in shipped WAL stream: applied through byte {local},"
                f" batch starts at {start_offset}"
            )
        skip = local - start_offset
        if skip >= len(data):
            return 0  # pure duplicate of already-applied bytes
        if skip:
            data = data[skip:]
        records, ends = read_frames(data)
        applied = 0
        if records and records[0][0] == "walhdr":
            if local != 0:
                raise ReplicationError(
                    "unexpected walhdr frame mid-stream: the primary"
                    " checkpointed; re-bootstrap required"
                )
            if records[0][1] != self.manager.generation:
                raise ReplicationError(
                    f"shipped WAL header generation {records[0][1]} does not"
                    f" match negotiated generation {self.manager.generation}"
                )
            self._persist(data[:ends[0]])
            applied = ends[0]
        for group, commit, start, end in committed_groups(records, ends):
            self._apply_commit(group, commit, data[start:end])
            applied = end
        if applied:
            self.db.obs.inc("replication.batches_applied", 1)
            self.db.obs.set_gauge(
                "replication.applied_csn", self.applied_csn
            )
        return applied

    def _persist(self, raw: bytes) -> None:
        self.manager.append_replicated(raw)
        self.applied_offset = self.manager.wal_size()

    def _apply_commit(self, group: list, commit: list, raw: bytes) -> None:
        db = self.db
        manager = self.manager
        db.activate_txn(db.root_txn)
        txn = db.root_txn
        # disk first: if we die between the append and the in-memory
        # apply, restart recovery replays the local WAL to this exact
        # state — memory is never ahead of disk
        self._persist(raw)
        try:
            manager.replaying = True
            try:
                apply_committed(manager, group, commit)
            finally:
                manager.replaying = False
            self.db.obs.inc("replication.records_applied", len(group))
            self.applied_csn = manager.txn_counter
            if txn.write_set:
                db.mvcc.release_writes(txn, committed=True)
            self.commits_applied += 1
            self.db.obs.inc("replication.commits_applied", 1)
        except BaseException:
            # disk and memory may now disagree mid-transaction; refuse
            # further feeds — a restart recovers cleanly from disk
            self.poisoned = True
            raise

    # -- bootstrap -------------------------------------------------------

    def bootstrap(self, snapshot_bytes: bytes, generation: int) -> None:
        """Replace all local state with a shipped checkpoint.

        Requires quiescence (no pinned reader snapshots, no in-flight
        claims): the rebuild swaps every table out from under the MVCC
        chains.  Raises a *transient* :class:`ReplicationError` when
        readers are mid-statement; the manager retries.
        """
        from repro.sqlengine.checkpoint import SNAPSHOT_MAGIC, load_snapshot

        db = self.db
        manager = self.manager
        mvcc = db.mvcc
        if mvcc.pins or not mvcc.quiescent():
            exc = ReplicationError(
                "cannot bootstrap while reader snapshots are pinned"
            )
            exc.transient = True
            raise exc
        db.activate_txn(db.root_txn)
        payload = None
        if snapshot_bytes:
            # install durably first (tmp + fsync + rename), then rebuild
            tmp_path = manager.snapshot_path.with_suffix(".json.ship")
            with open(tmp_path, "wb") as handle:
                handle.write(snapshot_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, manager.snapshot_path)
            payload = load_snapshot(manager.snapshot_path)
            if payload is None or payload.get("magic") != SNAPSHOT_MAGIC:
                raise ReplicationError("shipped snapshot failed validation")
            if payload["generation"] != generation:
                raise ReplicationError(
                    f"shipped snapshot generation {payload['generation']}"
                    f" does not match announced generation {generation}"
                )
        elif manager.snapshot_path.exists():
            manager.snapshot_path.unlink()
        manager.reset_wal_raw(generation)
        # wipe in-memory state: catalog, registries, caches, chains
        db.catalog.clear()
        stratum = manager.stratum
        if stratum is not None:
            for registry in (stratum.registry, stratum.tt_registry):
                registry._tables.clear()
                registry.version += 1
            stratum._nonseq_only_routines = set()
            stratum._inner_cp_requirements = {}
            stratum._transform_cache.clear()
        db.plan_cache.clear()
        db.expr_cache.clear()
        db.table_function_cache.clear()
        db.cp_cache.clear()
        for resource in list(mvcc._chained):
            resource.version_chain.clear()
            resource._snapshot_views.clear()
        mvcc._chained.clear()
        manager.replaying = True
        try:
            if payload is not None:
                _apply_snapshot(manager, payload)
                manager.txn_counter = payload.get("txn_counter", 0)
            else:
                manager.txn_counter = 0
        finally:
            manager.replaying = False
        manager.generation = generation
        txn = db.root_txn
        if mvcc.multi and txn.write_set:
            mvcc.release_writes(txn, committed=True)
        self.applied_offset = manager.wal_size()
        self.applied_csn = manager.txn_counter
        self.db.obs.inc("replication.bootstraps", 1)

    # -- promotion -------------------------------------------------------

    def promote(self) -> int:
        """Fail over: checkpoint the applied state (bumping the
        generation, so the dead primary's WAL can never be mistaken for
        ours), then lift the read-only gate.  Returns the new
        generation.  Writes stay refused until this returns."""
        db = self.db
        db.activate_txn(db.root_txn)
        # the root txn must log to the WAL again before the checkpoint
        # (checkpoint commits through it) and sessions after it
        db.root_txn.wal = self.manager
        generation = self.manager.checkpoint()
        self.exit_replica_mode()
        self.promoted = True
        self.applied_offset = self.manager.wal_size()
        self.db.obs.inc("replication.promotions", 1)
        return generation


# ---------------------------------------------------------------------------
# standby side: the asyncio tailer
# ---------------------------------------------------------------------------


class StandbyManager:
    """Owns the replication link: connect, hand-shake, bootstrap, tail,
    reconnect with jittered backoff, and expose lease/lag state.

    ``link_filter`` is the chaos hook: a callable mapping one received
    ``(offset, bytes)`` batch to a list of perturbed batches (torn,
    duplicated, reordered, stalled — see
    :class:`repro.sqlengine.resilience.ReplicationChaos`).
    """

    def __init__(
        self,
        server,
        primary_host: str,
        primary_port: int,
        *,
        poll_wait: float = 5.0,
        lease_timeout: float = 15.0,
        reconnect_base_delay: float = 0.05,
        reconnect_max_delay: float = 2.0,
        link_filter: Optional[Callable] = None,
    ) -> None:
        self.server = server
        self.applier = StandbyApplier(server.stratum)
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.poll_wait = poll_wait
        self.lease_timeout = lease_timeout
        self.reconnect_base_delay = reconnect_base_delay
        self.reconnect_max_delay = reconnect_max_delay
        self.link_filter = link_filter
        self.primary_commit_seq: Optional[int] = None
        self.last_contact: Optional[float] = None
        self.reconnects = 0
        self.connected = False
        self._stop = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._applied_event = asyncio.Event()
        self._rng_state = 0x5EED
        # received-but-unapplied bytes, starting at applied_offset: a
        # commit group larger than one chunk accumulates here across
        # polls instead of livelocking on a window it can never finish
        self._tail = b""

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        await self.server._db(self.applier.enter_replica_mode)
        self.server.standby = self
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        self._stop.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    def primary_alive(self) -> bool:
        """The lease: has the primary answered recently?"""
        if self.last_contact is None:
            return False
        loop = asyncio.get_event_loop()
        return (loop.time() - self.last_contact) < self.lease_timeout

    def status(self) -> dict[str, Any]:
        applier = self.applier
        lag = None
        if self.primary_commit_seq is not None:
            lag = max(0, self.primary_commit_seq - applier.applied_csn)
        return {
            "role": "standby" if not applier.promoted else "primary",
            "applied_csn": applier.applied_csn,
            "applied_offset": applier.applied_offset,
            "primary_commit_seq": self.primary_commit_seq,
            "lag_csn": lag,
            "connected": self.connected,
            "primary_alive": self.primary_alive(),
            "reconnects": self.reconnects,
            "bootstraps": self.server.db.obs.value("replication.bootstraps"),
        }

    async def wait_applied(self, min_csn: int, timeout: float) -> bool:
        """Bounded wait until ``applied_csn >= min_csn`` (read-your-writes)."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while self.applier.applied_csn < min_csn:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            self._applied_event.clear()
            if self.applier.applied_csn >= min_csn:
                return True
            try:
                await asyncio.wait_for(self._applied_event.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    # -- the tail loop ---------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        delay = min(
            self.reconnect_max_delay,
            self.reconnect_base_delay * (2 ** min(attempt, 10)),
        )
        # deterministic cheap jitter (xorshift), good enough to de-sync
        # a fleet of standbys without dragging in random state
        self._rng_state ^= (self._rng_state << 13) & 0xFFFFFFFF
        self._rng_state ^= self._rng_state >> 17
        self._rng_state ^= (self._rng_state << 5) & 0xFFFFFFFF
        return delay * (0.5 + (self._rng_state % 1000) / 2000.0)

    async def _run(self) -> None:
        from repro.server.client import ReproClient

        attempt = 0
        while not self._stop.is_set():
            client = None
            try:
                client = await ReproClient.connect(
                    self.primary_host, self.primary_port, reconnect=False
                )
                await self._stream(client)
                attempt = 0
            except asyncio.CancelledError:
                raise
            except ReplicationError as exc:
                if self.applier.poisoned:
                    raise  # unrecoverable without a restart
                # gap/reorder blip: re-request from the applied offset
                self.server.db.obs.inc("replication.link_errors", 1)
            except Exception:
                self.connected = False
                self.reconnects += 1
                self.server.db.obs.inc("replication.reconnects", 1)
                try:
                    await asyncio.wait_for(
                        self._stop.wait(), self._backoff(attempt)
                    )
                except asyncio.TimeoutError:
                    pass
                attempt += 1
            finally:
                if client is not None:
                    try:
                        await client.close()
                    except Exception:
                        pass

    async def _stream(self, client) -> None:
        """One connection's worth of hand-shake + tailing."""
        applier = self.applier
        self._tail = b""  # a fresh link re-ships anything buffered
        response = await client.request(
            {
                "op": "repl_handshake",
                "generation": applier.manager.generation,
                "offset": applier.applied_offset,
            },
            retryable=False,
        )
        self._note_contact(response)
        if not response.get("ok"):
            raise ReplicationError(response.get("error", "handshake refused"))
        if response["mode"] == "snapshot":
            await self._bootstrap(client)
        self.connected = True
        while not self._stop.is_set():
            response = await client.request(
                {
                    "op": "repl_wal",
                    "generation": applier.manager.generation,
                    "offset": applier.applied_offset + len(self._tail),
                    "wait": self.poll_wait,
                },
                retryable=False,
            )
            if not response.get("ok"):
                raise ReplicationError(
                    response.get("error", "repl_wal refused")
                )
            self._note_contact(response)
            if response.get("resync"):
                self._tail = b""
                await self._bootstrap(client)
                continue
            data = base64.b64decode(response["data"])
            if not data:
                self._update_lag()
                continue
            batches = [(response["offset"], data)]
            if self.link_filter is not None:
                batches = self.link_filter(response["offset"], data)
            for off, chunk in batches:
                if await self._deliver(off, chunk):
                    self._applied_event.set()
            self._update_lag()

    async def _deliver(self, off: int, chunk: bytes) -> int:
        """Integrate one (possibly perturbed) batch into the tail
        buffer and apply whatever complete commit groups it closes."""
        applier = self.applier
        base = applier.applied_offset
        buffered_end = base + len(self._tail)
        if off > buffered_end:
            raise ReplicationError(
                f"gap in shipped WAL stream: have bytes through"
                f" {buffered_end}, batch starts at {off}"
            )
        skip = buffered_end - off
        if skip >= len(chunk):
            return 0  # pure duplicate of bytes already buffered/applied
        self._tail += chunk[skip:]
        applied = await self.server._db(applier.feed, base, self._tail)
        if applied:
            self._tail = self._tail[applier.applied_offset - base:]
        return applied

    async def _bootstrap(self, client) -> None:
        """Fetch the primary's checkpoint in chunks and rebuild."""
        chunks: list[bytes] = []
        offset = 0
        while True:
            response = await client.request(
                {"op": "repl_snapshot", "offset": offset}, retryable=False
            )
            if not response.get("ok"):
                raise ReplicationError(
                    response.get("error", "repl_snapshot refused")
                )
            self._note_contact(response)
            chunk = base64.b64decode(response["data"])
            chunks.append(chunk)
            offset += len(chunk)
            if offset >= response["size"] or not chunk:
                break
        snapshot_bytes = b"".join(chunks)
        generation = response["generation"]
        # readers drain between statements; retry briefly for quiescence
        for _ in range(200):
            try:
                await self.server._db(
                    self.applier.bootstrap, snapshot_bytes, generation
                )
                self._applied_event.set()
                return
            except ReplicationError as exc:
                if not getattr(exc, "transient", False):
                    raise
                await asyncio.sleep(0.01)
        raise ReplicationError(
            "bootstrap could not acquire quiescence: readers kept"
            " snapshots pinned"
        )

    def _note_contact(self, response: dict) -> None:
        self.last_contact = asyncio.get_event_loop().time()
        if "commit_seq" in response:
            self.primary_commit_seq = response["commit_seq"]

    def _update_lag(self) -> None:
        if self.primary_commit_seq is None:
            return
        lag = max(0, self.primary_commit_seq - self.applier.applied_csn)
        self.server.db.obs.set_gauge("replication.lag_csn", lag)

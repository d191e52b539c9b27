"""Resilience layer: query watchdog, retry, scrubbing.

The engine's north star is serving heavy concurrent traffic; no
multi-client front-end is safe to build until a single statement can be
interrupted and a durable write retried.  This module concentrates those
cross-cutting concerns:

* :class:`ResilienceManager` — one per :class:`~repro.sqlengine.engine.Database`,
  the **query watchdog**: per-statement deadlines, async cancellation
  and a deterministic cancel-at-check trigger.  Hot paths pay one
  attribute load while disarmed::

      res = db.resilience
      if res.armed:
          res.check()

  Check sites: every join-level bind and opaque-source scan of a plan,
  every MAX constant-period iteration, the PERST row pass, constant-
  period materialization, and every PSM statement boundary.  A tripped
  deadline raises :class:`QueryCancelled` (SQLSTATE ``57014``), a
  :class:`~repro.sqlengine.errors.SignalError` subclass, so it unwinds
  through the existing handler/rollback machinery exactly like a
  ``SIGNAL``-raised condition and leaves the undo log clean.

* :func:`retry_durable` — bounded-backoff retry around WAL write/fsync
  and checkpoint tmp+rename.  Transient ``OSError``\\ s (EINTR/EAGAIN/
  ENOSPC-style) are retried with exponential backoff and counted under
  ``wal.retries``; exhaustion (or a non-transient error) raises a typed
  :class:`~repro.sqlengine.errors.DurabilityError` carrying the path
  and operation.

* :func:`verify_store` — the **durable-state scrubber**: walks the WAL
  CRC chain and the checkpoint header *offline*, reports the first
  torn/corrupt frame, and can quarantine the bad suffix to a sidecar
  file instead of silently truncating at next open.  Exposed as
  ``Database.verify()`` and the ``repro verify --db PATH`` CLI.

The seeded chaos schedules that arm faults at the ``txn.fault_plan``
hook sites and the watchdog's ``cancel_at_check`` live with the tests,
in ``tests/faultinject.py``.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.sqlengine.errors import DurabilityError, QueryCancelled

__all__ = [
    "ResilienceManager",
    "QueryCancelled",
    "DurabilityError",
    "retry_durable",
    "TRANSIENT_ERRNOS",
    "VerifyReport",
    "verify_store",
]


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------


class ResilienceManager:
    """Per-database query watchdog.

    Everything is disarmed by default; ``armed`` is a plain bool the hot
    paths read before calling :meth:`check`, so the disabled path costs
    two attribute loads and a branch.  Arming happens through
    ``statement_timeout``, an explicit :meth:`cancel`, or a
    deterministic ``cancel_at_check`` trigger (used by tests and the
    chaos harness).

    Deadlines are per *top-level* statement:
    :meth:`begin_statement`/:meth:`end_statement` track nesting (the
    stratum re-enters ``Database.execute_ast`` once per constant
    period), and only the outermost entry re-arms the clock.
    """

    __slots__ = (
        "db",
        "armed",
        "checks",
        "_statement_timeout",
        "_deadline",
        "_cancel_requested",
        "_cancel_at_check",
        "_depth",
    )

    def __init__(self, db) -> None:
        self.db = db
        self.armed = False
        self.checks = 0  # watchdog checks since the statement began
        self._statement_timeout: Optional[float] = None
        self._deadline: Optional[float] = None
        self._cancel_requested = False
        self._cancel_at_check: Optional[int] = None
        self._depth = 0

    # -- configuration ---------------------------------------------------

    def _rearm(self) -> None:
        self.armed = (
            self._statement_timeout is not None
            or self._deadline is not None
            or self._cancel_requested
            or self._cancel_at_check is not None
        )

    @property
    def statement_timeout(self) -> Optional[float]:
        """Per-top-level-statement deadline in seconds (None = off)."""
        return self._statement_timeout

    @statement_timeout.setter
    def statement_timeout(self, seconds: Optional[float]) -> None:
        self._statement_timeout = seconds
        if self._depth > 0:
            # take effect immediately when set mid-statement
            self._deadline = (
                time.monotonic() + seconds if seconds is not None else None
            )
        self._rearm()

    @property
    def cancel_at_check(self) -> Optional[int]:
        """One-shot deterministic trigger: cancel on the Nth watchdog
        check of the current (or next) top-level statement.  Cleared
        when it fires, so a CONTINUE handler can make progress."""
        return self._cancel_at_check

    @cancel_at_check.setter
    def cancel_at_check(self, n: Optional[int]) -> None:
        self._cancel_at_check = n
        self._rearm()

    def disable(self) -> None:
        """Back to the disarmed (free) state."""
        self._statement_timeout = None
        self._deadline = None
        self._cancel_requested = False
        self._cancel_at_check = None
        self.armed = False

    def cancel(self) -> None:
        """Request cancellation of the in-flight statement; the next
        watchdog check raises :class:`QueryCancelled`."""
        self._cancel_requested = True
        self.armed = True

    # -- statement lifecycle --------------------------------------------

    def begin_statement(self) -> None:
        """Called on entry to a top-level statement (nesting-aware)."""
        self._depth += 1
        if self._depth == 1 and self.armed:
            self.checks = 0
            if self._statement_timeout is not None:
                self._deadline = time.monotonic() + self._statement_timeout

    def end_statement(self) -> None:
        if self._depth > 0:
            self._depth -= 1
        if self._depth == 0:
            self._deadline = None
            self._rearm()

    # -- the hot check ---------------------------------------------------

    def check(self) -> None:
        """One watchdog checkpoint.  Call only when ``armed``."""
        self.checks += 1
        trigger = self._cancel_at_check
        if trigger is not None and self.checks >= trigger:
            self._cancel_at_check = None  # one-shot
            self.db.obs.inc("resilience.cancellations")
            raise QueryCancelled(
                f"query cancelled by watchdog trigger (check #{self.checks})"
            )
        if self._cancel_requested:
            self._cancel_requested = False
            self.db.obs.inc("resilience.cancellations")
            raise QueryCancelled("query cancelled on request")
        deadline = self._deadline
        if deadline is not None and time.monotonic() > deadline:
            self.db.obs.inc("resilience.cancellations")
            raise QueryCancelled(
                f"statement deadline exceeded"
                f" ({self._statement_timeout:.3f}s)"
            )


# ---------------------------------------------------------------------------
# transient-fault retry
# ---------------------------------------------------------------------------

# errno values treated as transient: interrupted syscalls, temporary
# resource exhaustion.  Anything else is wrapped and raised immediately.
TRANSIENT_ERRNOS = frozenset(
    {errno.EINTR, errno.EAGAIN, errno.ENOSPC, errno.EBUSY, errno.EIO}
)

RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 0.001  # seconds; doubles per retry
RETRY_MAX_DELAY = 0.020


def retry_durable(
    operation: str,
    path: Union[str, Path],
    fn: Callable[[], Any],
    *,
    obs=None,
    attempts: int = RETRY_ATTEMPTS,
) -> Any:
    """Run ``fn`` with bounded-backoff retry on transient ``OSError``.

    Retries are counted under ``wal.retries`` (when ``obs`` is given).
    A non-transient ``OSError``, or exhaustion of ``attempts``, raises
    :class:`DurabilityError` chaining the original error.  Exceptions
    that are not ``OSError`` (including injected
    :class:`~repro.sqlengine.errors.FaultInjected` crashes) pass through
    untouched — a simulated crash must never be "retried away".
    """
    delay = RETRY_BASE_DELAY
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except OSError as exc:
            transient = exc.errno in TRANSIENT_ERRNOS
            if transient and attempt < attempts:
                if obs is not None:
                    obs.inc("wal.retries")
                time.sleep(delay)
                delay = min(delay * 2, RETRY_MAX_DELAY)
                continue
            raise DurabilityError(
                operation, str(path), attempts=attempt, cause=exc
            ) from exc


# ---------------------------------------------------------------------------
# durable-state scrubber
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """The scrubber's findings for one database directory."""

    path: str
    snapshot_present: bool = False
    snapshot_ok: bool = True
    snapshot_generation: Optional[int] = None
    wal_present: bool = False
    wal_generation: Optional[int] = None
    wal_size: int = 0
    good_end: int = 0
    frames: int = 0
    committed_transactions: int = 0
    uncommitted_records: int = 0
    stale_wal: bool = False
    corrupt_offset: Optional[int] = None
    quarantined_to: Optional[str] = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean, or cleaned: corruption that was quarantined passes."""
        return not self.problems

    def render(self) -> str:
        lines = [f"verify {self.path}:"]
        if self.snapshot_present:
            status = "ok" if self.snapshot_ok else "CORRUPT"
            lines.append(
                f"  snapshot: {status}"
                + (
                    f" (generation {self.snapshot_generation})"
                    if self.snapshot_generation is not None
                    else ""
                )
            )
        else:
            lines.append("  snapshot: absent (fresh store)")
        if self.wal_present:
            lines.append(
                f"  wal: {self.frames} intact frame(s),"
                f" {self.committed_transactions} committed transaction(s),"
                f" {self.good_end}/{self.wal_size} bytes intact"
                + (
                    f" (generation {self.wal_generation})"
                    if self.wal_generation is not None
                    else ""
                )
            )
            if self.stale_wal:
                lines.append(
                    "  note: wal generation predates the snapshot —"
                    " stale log, ignored at recovery"
                )
            if self.uncommitted_records:
                lines.append(
                    f"  note: {self.uncommitted_records} record(s) after"
                    " the last commit (uncommitted tail, discarded at"
                    " recovery)"
                )
        else:
            lines.append("  wal: absent")
        for problem in self.problems:
            lines.append(f"  FAIL: {problem}")
        if self.quarantined_to:
            lines.append(
                f"  quarantined: bad suffix moved to {self.quarantined_to}"
            )
        lines.append("  result: " + ("OK" if self.ok else "CORRUPT"))
        return "\n".join(lines)


def verify_store(
    path: Union[str, Path], *, quarantine: bool = False
) -> VerifyReport:
    """Walk a database directory's durable state offline.

    Validates the snapshot CRC header and the WAL frame chain (length
    prefixes, CRC32 per frame, decodable payloads, header generation,
    begin/commit pairing).  On corruption the report carries the byte
    offset of the first bad frame; with ``quarantine=True`` the bad
    suffix is moved to a ``wal.log.quarantine-<offset>`` sidecar and
    the WAL truncated at the last intact frame, so the evidence is
    preserved instead of silently discarded at next open.
    """
    from repro.sqlengine.checkpoint import load_snapshot
    from repro.sqlengine.wal import SNAPSHOT_FILE, WAL_FILE, WalError, read_frames

    directory = Path(path)
    report = VerifyReport(path=str(directory))
    snapshot_path = directory / SNAPSHOT_FILE
    wal_path = directory / WAL_FILE

    # -- snapshot -------------------------------------------------------
    report.snapshot_present = snapshot_path.exists()
    snapshot_generation = None
    if report.snapshot_present:
        try:
            payload = load_snapshot(snapshot_path)
        except WalError as exc:
            report.snapshot_ok = False
            report.problems.append(str(exc))
        else:
            if payload is not None:
                snapshot_generation = payload.get("generation")
                report.snapshot_generation = snapshot_generation

    # -- WAL frame chain ------------------------------------------------
    report.wal_present = wal_path.exists()
    if not report.wal_present:
        return report
    data = wal_path.read_bytes()
    report.wal_size = len(data)
    records, ends = read_frames(data)
    good_end = ends[-1] if ends else 0
    report.good_end = good_end
    report.frames = len(records)
    if good_end < len(data):
        report.corrupt_offset = good_end
        report.problems.append(
            f"{WAL_FILE}: torn or corrupt frame at byte {good_end}"
            f" ({len(data) - good_end} trailing byte(s) unreadable)"
        )
    if records:
        header = records[0]
        if header[0] != "walhdr" or len(header) < 2:
            report.problems.append(f"{WAL_FILE}: missing walhdr header frame")
        else:
            report.wal_generation = header[1]
            if (
                snapshot_generation is not None
                and header[1] < snapshot_generation
            ):
                report.stale_wal = True
            elif (
                snapshot_generation is not None
                and header[1] > snapshot_generation
            ):
                report.problems.append(
                    f"{WAL_FILE}: generation {header[1]} is ahead of the"
                    f" snapshot's {snapshot_generation} — snapshot and log"
                    " do not belong together"
                )

    # -- begin/commit pairing -------------------------------------------
    tail = 0  # records since the last commit marker
    for record in records[1:]:
        if record[0] == "commit":
            report.committed_transactions += 1
            tail = 0
        else:
            tail += 1
    report.uncommitted_records = tail

    # -- quarantine -----------------------------------------------------
    if report.corrupt_offset is not None and quarantine:
        sidecar = wal_path.with_name(
            f"{WAL_FILE}.quarantine-{report.corrupt_offset}"
        )
        sidecar.write_bytes(data[report.corrupt_offset :])
        with open(wal_path, "r+b") as handle:
            handle.truncate(report.corrupt_offset)
            handle.flush()
            os.fsync(handle.fileno())
        report.quarantined_to = str(sidecar)
        # the store is clean again; keep the finding in the report text
        # but drop it from the failure list
        report.problems = [
            p for p in report.problems if "torn or corrupt frame" not in p
        ]
    return report

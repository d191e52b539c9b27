"""Resilience layer: query watchdog, resource governor, retry, scrubbing, chaos.

The engine's north star is serving heavy concurrent traffic; no
multi-client front-end is safe to build until a single statement can be
interrupted, budgeted, and retried.  This module concentrates those
cross-cutting concerns:

* :class:`ResilienceManager` — one per :class:`~repro.sqlengine.engine.Database`,
  combining the **query watchdog** (per-statement deadlines, async
  cancellation, deterministic cancel-at-check triggers for tests) and
  the **resource governor** (row-scan / undo-depth / resident-bytes
  budgets).  Hot paths pay one attribute load while disarmed::

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

* **Graceful degradation** — under resident-bytes pressure the planner
  consults :meth:`ResilienceManager.allow_columnar` before building a
  columnar image and falls back to streaming row-at-a-time scans; every
  degradation is counted (``resilience.degradations.vectorized``) and
  surfaced in EXPLAIN ANALYZE.

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

* :class:`ChaosSchedule` — a seeded extension of
  :class:`~repro.sqlengine.txn.FaultPlan`/``FaultSet`` arming randomized
  multi-site fault sequences (mutation faults, fsync kills, mid-loop
  cancellations) across whole workloads.  The chaos harness asserts the
  resilience invariant: *complete, or fail typed with clean rollback,
  or recover to the committed-prefix fingerprint — never hang, never
  corrupt*.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.sqlengine.errors import (
    DurabilityError,
    QueryCancelled,
    ResourceBudgetExceeded,
)

__all__ = [
    "ResilienceManager",
    "QueryCancelled",
    "ResourceBudgetExceeded",
    "DurabilityError",
    "retry_durable",
    "TRANSIENT_ERRNOS",
    "VerifyReport",
    "verify_store",
    "ChaosSchedule",
]


# ---------------------------------------------------------------------------
# watchdog + governor
# ---------------------------------------------------------------------------


class ResilienceManager:
    """Per-database watchdog and resource governor.

    Everything is disarmed by default; ``armed`` is a plain bool the hot
    paths read before calling :meth:`check`, so the disabled path costs
    two attribute loads and a branch.  Arming happens through the
    configuration properties (``statement_timeout``, budgets), an
    explicit :meth:`cancel`, or a deterministic ``cancel_at_check``
    trigger (used by tests and the chaos harness).

    Deadlines and the row-scan baseline are per *top-level* statement:
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
        "_max_rows_scanned",
        "_max_undo_depth",
        "_max_resident_bytes",
        "_depth",
        "_rows_baseline",
        "_resident_extra",
    )

    def __init__(self, db) -> None:
        self.db = db
        self.armed = False
        self.checks = 0  # watchdog checks since the statement began
        self._statement_timeout: Optional[float] = None
        self._deadline: Optional[float] = None
        self._cancel_requested = False
        self._cancel_at_check: Optional[int] = None
        self._max_rows_scanned: Optional[int] = None
        self._max_undo_depth: Optional[int] = None
        self._max_resident_bytes: Optional[int] = None
        self._depth = 0
        self._rows_baseline = 0
        # bytes admitted by allow_columnar since the last gauge refresh:
        # the gauge is only recomputed on demand, so stores granted in
        # between must count against the budget too
        self._resident_extra = 0

    # -- configuration ---------------------------------------------------

    def _rearm(self) -> None:
        self.armed = (
            self._statement_timeout is not None
            or self._deadline is not None
            or self._cancel_requested
            or self._cancel_at_check is not None
            or self._max_rows_scanned is not None
            or self._max_undo_depth is not None
            or self._max_resident_bytes is not None
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
    def max_rows_scanned(self) -> Optional[int]:
        return self._max_rows_scanned

    @max_rows_scanned.setter
    def max_rows_scanned(self, limit: Optional[int]) -> None:
        self._max_rows_scanned = limit
        self._rearm()

    @property
    def max_undo_depth(self) -> Optional[int]:
        return self._max_undo_depth

    @max_undo_depth.setter
    def max_undo_depth(self, limit: Optional[int]) -> None:
        self._max_undo_depth = limit
        self._rearm()

    @property
    def max_resident_bytes(self) -> Optional[int]:
        return self._max_resident_bytes

    @max_resident_bytes.setter
    def max_resident_bytes(self, limit: Optional[int]) -> None:
        self._max_resident_bytes = limit
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

    def configure(
        self,
        *,
        statement_timeout: Optional[float] = None,
        max_rows_scanned: Optional[int] = None,
        max_undo_depth: Optional[int] = None,
        max_resident_bytes: Optional[int] = None,
    ) -> "ResilienceManager":
        """Set (or clear, with None) every knob in one call."""
        self._statement_timeout = statement_timeout
        self._max_rows_scanned = max_rows_scanned
        self._max_undo_depth = max_undo_depth
        self._max_resident_bytes = max_resident_bytes
        self._rearm()
        return self

    def disable(self) -> None:
        """Back to the disarmed (free) state."""
        self._statement_timeout = None
        self._deadline = None
        self._cancel_requested = False
        self._cancel_at_check = None
        self._max_rows_scanned = None
        self._max_undo_depth = None
        self._max_resident_bytes = None
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
            self._rows_baseline = self.db.obs.value("engine.rows_scanned")
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
        """One watchdog/governor checkpoint.  Call only when ``armed``."""
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
        limit = self._max_rows_scanned
        if limit is not None:
            used = self.db.obs.value("engine.rows_scanned") - self._rows_baseline
            if used > limit:
                self.db.obs.inc("resilience.budget_stops")
                raise ResourceBudgetExceeded(
                    f"row-scan budget exceeded: {used} > {limit} rows"
                    f" this statement",
                    budget="rows_scanned",
                    limit=limit,
                    used=used,
                )
        limit = self._max_undo_depth
        if limit is not None:
            used = len(self.db.txn.log)
            if used > limit:
                self.db.obs.inc("resilience.budget_stops")
                raise ResourceBudgetExceeded(
                    f"undo-depth budget exceeded: {used} > {limit}"
                    f" log entries",
                    budget="undo_depth",
                    limit=limit,
                    used=used,
                )

    # -- graceful degradation (the governor's soft edge) -----------------

    def allow_columnar(self, table) -> bool:
        """May the planner materialize ``table``'s columnar image?

        Under a resident-bytes budget, building a *new* store that
        would push the estimate past the limit is denied — the scan
        degrades to the streaming row-at-a-time path instead of
        failing.  A store that is already built and current is always
        allowed: it costs no new memory.  Estimation is deliberately
        cheap (rows × columns × a per-cell constant); calling
        ``table.bytes_resident()`` here would *build* the store we are
        deciding about.
        """
        limit = self._max_resident_bytes
        if limit is None:
            return True
        if table.has_column_store():
            return True
        estimate = _estimate_store_bytes(table)
        resident = (
            self.db.obs.gauges.get("engine.bytes_resident", 0)
            + self._resident_extra
        )
        if resident + estimate > limit:
            self.db.obs.inc("resilience.degradations.vectorized")
            return False
        self._resident_extra += estimate
        return True

    def note_gauge_refresh(self) -> None:
        """The ``engine.bytes_resident`` gauge was just recomputed; the
        provisional grants are folded into it."""
        self._resident_extra = 0

    # -- introspection ---------------------------------------------------

    def state(self) -> dict[str, Any]:
        return {
            "armed": self.armed,
            "statement_timeout": self._statement_timeout,
            "max_rows_scanned": self._max_rows_scanned,
            "max_undo_depth": self._max_undo_depth,
            "max_resident_bytes": self._max_resident_bytes,
            "checks": self.checks,
            "cancellations": self.db.obs.value("resilience.cancellations"),
            "budget_stops": self.db.obs.value("resilience.budget_stops"),
            "degradations": self.db.obs.value(
                "resilience.degradations.vectorized"
            ),
        }


# rough per-cell byte cost of a columnar image (ColumnVector holds
# typed arrays for dates/ints and object lists otherwise; 24 bytes/cell
# sits between the two) plus a fixed per-column overhead
_CELL_BYTES = 24
_COLUMN_OVERHEAD = 64


def _estimate_store_bytes(table) -> int:
    return (
        len(table.rows) * len(table.columns) * _CELL_BYTES
        + len(table.columns) * _COLUMN_OVERHEAD
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
    elif data:
        report.problems.append(f"{WAL_FILE}: no intact frames")

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


# ---------------------------------------------------------------------------
# chaos schedules
# ---------------------------------------------------------------------------

# fault sites a schedule may arm, split by whether they require an
# attached durability manager to ever be reached
MUTATION_SITES = (
    "table.insert",
    "table.update",
    "table.delete",
    "table.replace_rows",
)
DURABLE_SITES = ("wal.write", "wal.fsync", "checkpoint.rename")


class ChaosSchedule:
    """A seeded, randomized multi-site fault/cancellation schedule.

    Extends :class:`~repro.sqlengine.txn.FaultPlan`/``FaultSet`` from
    single deterministic faults to whole-workload chaos: a schedule owns
    zero or more fault plans over the mutation and durability sites plus
    an optional watchdog ``cancel_at_check`` trigger, all drawn from one
    seed so every run is reproducible.

    Usage::

        schedule = ChaosSchedule(seed)
        schedule.arm(db)
        try:
            ... run the workload ...
        finally:
            schedule.disarm(db)
    """

    def __init__(
        self,
        seed: int,
        *,
        durable: bool = False,
        max_faults: int = 2,
        max_fault_at: int = 40,
        cancel_probability: float = 0.5,
        max_cancel_check: int = 400,
        transient_probability: float = 0.3,
    ) -> None:
        from repro.sqlengine.txn import FaultPlan

        self.seed = seed
        rng = random.Random(seed)
        sites = MUTATION_SITES + (DURABLE_SITES if durable else ())
        self.plans: list = []
        for _ in range(rng.randrange(max_faults + 1)):
            site = rng.choice(sites)
            # cap the trigger offset to the workload's expected hit
            # volume, else most plans never reach their `at`
            kwargs: dict[str, Any] = {"at": rng.randrange(1, max_fault_at)}
            if rng.random() < 0.3:
                kwargs["every"] = rng.randrange(2, 20)
                kwargs["times"] = rng.randrange(1, 4)
            if site in ("wal.write", "wal.fsync", "checkpoint.rename") and (
                rng.random() < transient_probability
            ):
                # an EINTR-style blip: absorbed by retry_durable, the
                # workload should complete as if nothing happened
                kwargs["exc_factory"] = _transient_os_error
            self.plans.append(FaultPlan(site, **kwargs))
        self.cancel_at_check: Optional[int] = (
            rng.randrange(1, max_cancel_check)
            if rng.random() < cancel_probability
            else None
        )
        self._saved_fault_plan: Any = None

    @property
    def transient_only(self) -> bool:
        """True when every armed fault is a retryable OSError blip."""
        return all(
            getattr(plan, "exc_factory", None) is not None
            for plan in self.plans
        ) and self.cancel_at_check is None

    def describe(self) -> str:
        parts = [
            f"{plan.site}@{plan.at}"
            + (f"/every{plan.every}x{plan.times}" if plan.every else "")
            + ("(transient)" if getattr(plan, "exc_factory", None) else "")
            for plan in self.plans
        ]
        if self.cancel_at_check is not None:
            parts.append(f"cancel@check{self.cancel_at_check}")
        return f"seed={self.seed}: " + (", ".join(parts) if parts else "no-op")

    def arm(self, db) -> None:
        from repro.sqlengine.txn import FaultSet

        self._saved_fault_plan = db.txn.fault_plan
        if self.plans:
            db.txn.fault_plan = FaultSet(*self.plans)
        if self.cancel_at_check is not None:
            db.resilience.cancel_at_check = self.cancel_at_check

    def disarm(self, db) -> None:
        db.txn.fault_plan = self._saved_fault_plan
        self._saved_fault_plan = None
        db.resilience.cancel_at_check = None


def _transient_os_error(site: str, target: str, hits: int) -> OSError:
    return OSError(
        errno.EINTR,
        f"injected transient fault at {site} on {target!r} (match #{hits})",
    )


class ReplicationChaos:
    """Seeded perturbation of the WAL-shipping link.

    The replication-side sibling of :class:`ChaosSchedule`: one seed
    draws a reproducible sequence of link misbehaviors.  An instance is
    a ``StandbyManager`` ``link_filter`` — called with each fetched
    ``(offset, data)`` batch, it returns the deliveries the standby
    actually sees:

    - **tear**: only a prefix of the batch arrives (the tail is
      re-fetched on the next poll, since the applied offset only
      advances past complete commit groups);
    - **duplicate**: the batch is delivered twice (the second copy
      trims to nothing against the applier's local offset);
    - **stall**: the batch is dropped outright (the tailer re-requests
      the same offset);
    - **reorder**: the batch is held back and delivered *after* its
      successor, which the applier rejects as a gap — a recoverable
      :class:`~repro.sqlengine.errors.ReplicationError` that makes the
      tailer re-request from its applied offset.

    ``kill_primary_after`` does not shape the link; it marks the batch
    count after which a harness should kill the primary mid-stream
    (consult :attr:`primary_should_die`).
    """

    ACTIONS = ("pass", "tear", "duplicate", "stall", "reorder")

    def __init__(
        self,
        seed: int,
        *,
        perturb_probability: float = 0.4,
        kill_primary_after: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self._rng = random.Random((seed << 1) ^ 0x9E3779B9)
        self.perturb_probability = perturb_probability
        self.kill_primary_after = kill_primary_after
        self.batches_seen = 0
        self.actions: list = []  # the drawn sequence, for post-mortems
        self._held: Optional[tuple] = None

    @property
    def primary_should_die(self) -> bool:
        return (
            self.kill_primary_after is not None
            and self.batches_seen >= self.kill_primary_after
        )

    def describe(self) -> str:
        kill = (
            f", kill-primary@{self.kill_primary_after}"
            if self.kill_primary_after is not None
            else ""
        )
        return (
            f"seed={self.seed}: p={self.perturb_probability}{kill},"
            f" actions={','.join(self.actions) or 'none yet'}"
        )

    def __call__(self, offset: int, data: bytes) -> list:
        self.batches_seen += 1
        rng = self._rng
        if rng.random() >= self.perturb_probability:
            action = "pass"
        else:
            action = rng.choice(self.ACTIONS[1:])
        self.actions.append(action)
        deliveries: list = []
        if self._held is not None and action != "reorder":
            # release a previously held batch *after* the current one:
            # the standby sees them out of order
            held, self._held = self._held, None
            if action == "tear" and len(data) > 1:
                deliveries.append((offset, data[: rng.randrange(1, len(data))]))
            elif action == "duplicate":
                deliveries.extend([(offset, data), (offset, data)])
            elif action == "stall":
                pass
            else:
                deliveries.append((offset, data))
            deliveries.append(held)
            return deliveries
        if action == "tear" and len(data) > 1:
            deliveries.append((offset, data[: rng.randrange(1, len(data))]))
        elif action == "duplicate":
            deliveries.extend([(offset, data), (offset, data)])
        elif action == "stall":
            pass
        elif action == "reorder":
            if self._held is not None:
                deliveries.append(self._held)
            self._held = (offset, data)
        else:
            deliveries.append((offset, data))
        return deliveries

"""Fault-injection harness for the transaction, WAL and chaos tests.

The engine's mutation and durability primitives call
``db.txn.fault_plan.hit(site, target)`` before they act; this module
holds what gets armed there.

* :class:`FaultPlan` fails scheduled matches at one site and
  :class:`FaultSet` arms several sites at once.  ``install_fault`` arms
  a single-shot plan; re-running the failed statement after
  ``clear_fault`` (or even without clearing) succeeds.
* :class:`ChaosSchedule` draws a whole-workload fault sequence from one
  seed: fault plans over the mutation and durability sites plus an
  optional watchdog ``cancel_at_check`` trigger.
* ``snapshot_db`` captures everything rollback promises to restore —
  row data, version counters, catalog contents, schema version,
  registry entries — so a test can assert that a statement crashed
  mid-flight left the database byte-identical to never having run it.
"""

from __future__ import annotations

import copy
import errno
import random
from typing import Any, Callable, Optional

from repro.sqlengine.engine import Database
from repro.sqlengine.errors import FaultInjected


class FaultPlan:
    """Deterministic fault injection: fail scheduled mutations at a site.

    ``site`` is a primitive tag such as ``"table.insert"`` or
    ``"catalog.add_table"``; ``target`` optionally restricts to one
    object name.  By default the fault fires once (on the ``at``-th
    match) and then stays spent, so re-running the statement after a
    crash succeeds without clearing the plan.  Two extensions support
    crash-matrix sweeps without re-arming:

    * ``every=N`` re-fires on every Nth match after ``at``
      (``at``, ``at+N``, ``at+2N``, ...);
    * ``times=K`` caps the number of firings (``None`` = unlimited,
      meaningful only with ``every``).

    Primitives consult the plan *before* mutating, so a fired fault
    leaves that primitive un-applied.

    ``exc_factory`` swaps the raised exception: a callable
    ``(site, target, hits) -> BaseException`` lets the chaos harness
    inject ``OSError``-style *transient* faults at the durability sites
    (absorbed by bounded retry) instead of the default
    :class:`FaultInjected` crash simulation.
    """

    __slots__ = (
        "site", "target", "at", "every", "times", "hits", "fires", "fired",
        "exc_factory",
    )

    def __init__(
        self,
        site: str,
        target: Optional[str] = None,
        at: int = 1,
        every: Optional[int] = None,
        times: Optional[int] = 1,
        exc_factory: Optional[Callable[[str, str, int], BaseException]] = None,
    ) -> None:
        self.site = site
        self.target = target.lower() if target is not None else None
        self.at = at
        self.every = every
        self.times = times
        self.exc_factory = exc_factory
        self.hits = 0
        self.fires = 0
        self.fired = False

    @property
    def spent(self) -> bool:
        return self.times is not None and self.fires >= self.times

    def hit(self, site: str, target: str) -> None:
        """Count a mutation; raise :class:`FaultInjected` on scheduled matches."""
        if site != self.site or self.spent:
            return
        if self.target is not None and target.lower() != self.target:
            return
        self.hits += 1
        if self.hits == self.at:
            due = True
        elif self.every is not None and self.hits > self.at:
            due = (self.hits - self.at) % self.every == 0
        else:
            due = False
        if due:
            self.fires += 1
            self.fired = True
            if self.exc_factory is not None:
                raise self.exc_factory(site, target, self.hits)
            raise FaultInjected(
                f"injected fault at {site} on {target!r} (match #{self.hits})"
            )


class FaultSet:
    """Several armed :class:`FaultPlan` sites behind one ``hit`` surface.

    Duck-types the single-plan interface the primitives consult, so a
    crash-matrix test can arm, say, every-Nth-fsync *and* a catalog
    fault in the same run: ``txn.fault_plan = FaultSet(p1, p2)``.
    """

    __slots__ = ("plans",)

    def __init__(self, *plans: FaultPlan) -> None:
        self.plans = list(plans)

    @property
    def fired(self) -> bool:
        return any(plan.fired for plan in self.plans)

    def hit(self, site: str, target: str) -> None:
        for plan in self.plans:
            plan.hit(site, target)


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

    Extends :class:`FaultPlan`/:class:`FaultSet` from single
    deterministic faults to whole-workload chaos: a schedule owns zero
    or more fault plans over the mutation and durability sites plus an
    optional watchdog ``cancel_at_check`` trigger, all drawn from one
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
            if site in DURABLE_SITES and rng.random() < transient_probability:
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

    def describe(self) -> str:
        parts = [
            f"{plan.site}@{plan.at}"
            + (f"/every{plan.every}x{plan.times}" if plan.every else "")
            + ("(transient)" if plan.exc_factory else "")
            for plan in self.plans
        ]
        if self.cancel_at_check is not None:
            parts.append(f"cancel@check{self.cancel_at_check}")
        return f"seed={self.seed}: " + (", ".join(parts) if parts else "no-op")

    def arm(self, db) -> None:
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


def snapshot_db(db: Database) -> dict[str, Any]:
    """A deep-enough snapshot of all state rollback must restore."""
    tables = {}
    for name, table in db.catalog._tables.items():
        tables[name] = {
            "columns": [
                (c.name, str(c.type), c.not_null, c.primary_key)
                for c in table.columns
            ],
            "rows": copy.deepcopy(table.rows),
            "version": table.version,
        }
    return {
        "tables": tables,
        "views": sorted(db.catalog._views.keys()),
        "routines": sorted(db.catalog._routines.keys()),
        "schema_version": db.catalog.schema_version,
    }


def snapshot_registry(registry) -> dict[str, Any]:
    """The registered temporal-table set (names and timestamp columns)."""
    return {
        key: (info.name, info.begin_column, info.end_column)
        for key, info in registry._tables.items()
    }


def assert_snapshot_equal(db: Database, expected: dict[str, Any]) -> None:
    actual = snapshot_db(db)
    assert actual["schema_version"] == expected["schema_version"]
    assert actual["views"] == expected["views"]
    assert actual["routines"] == expected["routines"]
    assert sorted(actual["tables"]) == sorted(expected["tables"])
    for name, want in expected["tables"].items():
        got = actual["tables"][name]
        assert got["columns"] == want["columns"], f"{name}: column layout"
        assert got["rows"] == want["rows"], f"{name}: row data"
        assert got["version"] == want["version"], f"{name}: version counter"
    # derived structures must never describe data newer than the version says
    for name, table in db.catalog._tables.items():
        for key, entry in table._derived.items():
            assert entry[0] <= table.version, f"{name}: stale {key} survived"


def install_fault(
    db: Database, site: str, target: Optional[str] = None, at: int = 1
) -> FaultPlan:
    plan = FaultPlan(site, target=target, at=at)
    db.txn.fault_plan = plan
    return plan


def clear_fault(db: Database) -> None:
    db.txn.fault_plan = None

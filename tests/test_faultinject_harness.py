"""The fault-injection harness itself (``tests/faultinject.py``).

The crash, WAL and chaos tests trust :class:`FaultPlan`,
:class:`FaultSet` and :class:`ChaosSchedule` to fire exactly when they
say; these tests pin that schedule without an engine in the way, plus
the one contract with the engine: ``arm`` / ``disarm`` leave the
database as they found it.
"""

from __future__ import annotations

import errno

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import FaultInjected

from tests.faultinject import (
    DURABLE_SITES,
    MUTATION_SITES,
    ChaosSchedule,
    FaultPlan,
    FaultSet,
)


def firing_hits(plan: FaultPlan, site: str, target: str, n: int) -> list[int]:
    """Feed ``n`` hits to ``plan``; return the 1-based hits that raised."""
    fired = []
    for i in range(1, n + 1):
        try:
            plan.hit(site, target)
        except FaultInjected:
            fired.append(i)
    return fired


def test_single_shot_plan_fires_once_at_its_match_then_stays_spent():
    plan = FaultPlan("table.insert", at=3)
    assert firing_hits(plan, "table.insert", "t", 10) == [3]
    assert plan.fired and plan.spent and plan.fires == 1
    # a spent plan stops counting
    assert plan.hits == 3


def test_every_refires_on_its_period_up_to_times():
    unlimited = FaultPlan("wal.fsync", at=2, every=3, times=None)
    assert firing_hits(unlimited, "wal.fsync", "wal", 12) == [2, 5, 8, 11]
    assert not unlimited.spent
    capped = FaultPlan("wal.fsync", at=2, every=3, times=2)
    assert firing_hits(capped, "wal.fsync", "wal", 12) == [2, 5]
    assert capped.spent


def test_plan_counts_only_its_site_and_target_case_insensitively():
    plan = FaultPlan("table.delete", target="Author", at=2)
    plan.hit("table.insert", "author")  # other site
    plan.hit("table.delete", "book")  # other target
    assert plan.hits == 0
    plan.hit("table.delete", "AUTHOR")
    with pytest.raises(FaultInjected, match="match #2"):
        plan.hit("table.delete", "author")


def test_exc_factory_replaces_the_injected_crash():
    seen = []

    def factory(site, target, hits):
        seen.append((site, target, hits))
        return OSError(errno.EINTR, "blip")

    plan = FaultPlan("wal.write", exc_factory=factory)
    with pytest.raises(OSError, match="blip"):
        plan.hit("wal.write", "wal")
    assert seen == [("wal.write", "wal", 1)]


def test_fault_set_forwards_every_hit_and_reports_any_fired():
    insert = FaultPlan("table.insert", at=2)
    fsync = FaultPlan("wal.fsync", at=1)
    plans = FaultSet(insert, fsync)
    plans.hit("table.insert", "t")
    assert not plans.fired
    with pytest.raises(FaultInjected):
        plans.hit("table.insert", "t")
    assert plans.fired and insert.fired and not fsync.fired
    with pytest.raises(FaultInjected):
        plans.hit("wal.fsync", "wal")
    assert fsync.fired


def test_chaos_schedule_is_a_function_of_its_seed():
    seeds = range(20120401, 20120401 + 50)
    first = [ChaosSchedule(s, durable=True).describe() for s in seeds]
    again = [ChaosSchedule(s, durable=True).describe() for s in seeds]
    assert first == again
    # the seeds do not all draw the same schedule
    assert len({d.split(": ", 1)[1] for d in first}) > 10


def test_chaos_schedule_stays_inside_its_bounds():
    for seed in range(300):
        schedule = ChaosSchedule(
            seed, durable=True, max_faults=3, max_fault_at=8,
            max_cancel_check=50,
        )
        assert len(schedule.plans) <= 3
        for plan in schedule.plans:
            assert 1 <= plan.at < 8
            if plan.every is not None:
                assert 2 <= plan.every < 20 and 1 <= plan.times < 4
        if schedule.cancel_at_check is not None:
            assert 1 <= schedule.cancel_at_check < 50


def test_volatile_schedules_never_reach_durability_sites():
    sites = set()
    for seed in range(300):
        sites.update(plan.site for plan in ChaosSchedule(seed).plans)
    assert sites == set(MUTATION_SITES)


def test_transient_faults_arm_only_durability_sites():
    transient_sites = set()
    for seed in range(300):
        for plan in ChaosSchedule(seed, durable=True).plans:
            if plan.exc_factory is not None:
                transient_sites.add(plan.site)
                error = plan.exc_factory(plan.site, "wal", plan.at)
                assert isinstance(error, OSError) and error.errno == errno.EINTR
    assert transient_sites and transient_sites <= set(DURABLE_SITES)


def test_arm_and_disarm_restore_the_database():
    seed = next(
        s for s in range(1000)
        if (schedule := ChaosSchedule(s)).plans
        and schedule.cancel_at_check is not None
    )
    schedule = ChaosSchedule(seed)
    db = Database()
    previous = FaultPlan("table.update", at=99)
    db.txn.fault_plan = previous
    schedule.arm(db)
    assert isinstance(db.txn.fault_plan, FaultSet)
    assert db.txn.fault_plan.plans == schedule.plans
    assert db.resilience.cancel_at_check == schedule.cancel_at_check
    assert db.resilience.armed
    schedule.disarm(db)
    assert db.txn.fault_plan is previous
    assert db.resilience.cancel_at_check is None
    assert not db.resilience.armed

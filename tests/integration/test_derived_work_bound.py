"""Work bound: steady-state writes rebuild none of ``item``'s structures.

DS1-SMALL, the four statement shapes of the served workload — a current
UPDATE, a sequenced UPDATE, a point read, a sequenced SELECT — 50 rounds
after one warm-up round.  Every write reaches ``item``'s hash index,
interval index and column store as a row delta, so the reads between
them find all three current: **0** full builds (at the parent of this
change: at least 3 per round), and every result equals a run that drops
the structures before each read.
"""

from repro.sqlengine.values import Date
from repro.taubench import build_dataset

ROUNDS = 50
KINDS = ("hash", "interval", "columnar")


def builds(db) -> dict:
    return {kind: db.obs.value(f"engine.derived.builds.{kind}") for kind in KINDS}


def run(from_scratch: bool):
    """Results of every read, and the builds the timed rounds made."""
    dataset = build_dataset("DS1", "SMALL")
    stratum, db = dataset.stratum, dataset.stratum.db
    item = db.table("item")
    ids = sorted({row[0] for row in item.rows})
    now = db.now.ordinal
    read = f"VALIDTIME [DATE '{Date(now - 30).to_iso()}', DATE '{Date(now).to_iso()}'] "
    write = f"VALIDTIME [DATE '{Date(now + 1).to_iso()}', DATE '{Date(now + 31).to_iso()}'] "
    results = []

    def reads(n: int) -> None:
        for sql in (
            f"SELECT i.title, i.price FROM item i WHERE i.id = '{ids[n % len(ids)]}'",
            read + "SELECT i.id, i.price FROM item i WHERE i.price > 50",
        ):
            if from_scratch:
                item._derived.clear()
            result = stratum.execute(sql)
            results.append([list(row) for row in result.rows])

    def one_round(n: int) -> None:
        a, b = ids[(2 * n) % len(ids)], ids[(2 * n + 1) % len(ids)]
        assert stratum.execute(f"UPDATE item SET price = {n}.5 WHERE id = '{a}'") == 1
        reads(n)
        touched = stratum.execute(
            write + f"UPDATE item SET number_of_pages = {100 + n} WHERE id = '{b}'"
        )
        assert touched >= 1
        reads(n + 1)

    one_round(0)  # warm-up: plans, transforms, first builds
    before = builds(db)
    deltas = db.obs.value("engine.derived.deltas")
    for n in range(1, ROUNDS + 1):
        one_round(n)
    made = {kind: count - before[kind] for kind, count in builds(db).items()}
    carried = db.obs.value("engine.derived.deltas") - deltas
    return results, made, carried, [list(row) for row in item.rows]


def test_steady_state_writes_rebuild_nothing():
    results, made, carried, rows = run(from_scratch=False)
    assert made == {"hash": 0, "interval": 0, "columnar": 0}
    assert carried > 0
    reference, rebuilt, _, reference_rows = run(from_scratch=True)
    # the reference really did rebuild: all three, before every read
    assert all(count >= ROUNDS for count in rebuilt.values())
    assert results == reference
    assert rows == reference_rows

"""The routine-result memo on the τPSM workload (DS1-SMALL × 365 d).

* All sixteen queries under MAX equal the reference evaluators, which
  run every invocation: ``test_memo_changes_no_result`` is the reference
  differential's τPSM test (``test_reference_differential.py``).
* Work bound, counts repeating exactly: q2 and q17b run their routine
  bodies once per *distinct read window*, counted here independently
  from the tables by replaying each routine's reads — a hash probe's
  window is the cell its bucket's bounds leave around the period begin,
  less the versions a point-free level filter (a column against a
  column or a literal) rejects, any other access path's the table's —
  and run + reused is the invocations made.
* The work every query does, pinned: PSM statements, bodies run and
  invocations reused as recorded before routine bodies were compiled
  (commit 2396fbb) — compiling them must do the same work, only
  cheaper — and the rows the access paths return.
"""

import pytest

from repro.sqlengine.values import Date
from repro.taubench import build_dataset, get_query
from repro.taubench.queries import ALL_QUERIES
from repro.temporal import SlicingStrategy
from repro.temporal.constant_periods import compute_constant_periods
from repro.temporal.period import Period

from tests.integration.test_reference_differential import (  # noqa: F401
    test_taupsm_max as test_memo_changes_no_result,
)

BEGIN, END = "2010-02-01", "2011-02-01"
INF = float("inf")


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("DS1", "SMALL")


def counted(dataset, name: str):
    """``(bodies run, invocations reused)`` of one warm execution; the
    counts must repeat exactly."""
    stratum, db = dataset.stratum, dataset.stratum.db
    spec = get_query(name)
    spec.install(dataset)
    sql = spec.sequenced_sql(dataset, BEGIN, END)
    stratum.execute(sql, strategy=SlicingStrategy.MAX)  # warm
    measured = []
    for _ in range(2):
        db.stats.reset()
        stratum.execute(sql, strategy=SlicingStrategy.MAX)
        measured.append((
            db.obs.sum_prefix("engine.routine.calls."), db.obs.sum_prefix("engine.routine.reuses.")
        ))
    assert measured[0] == measured[1]
    return measured[0]


# (engine.statements, bodies run, invocations reused, rows scanned) of one
# warm execution.  The first three were recorded with the walking
# interpreter at 2396fbb.  Rows scanned counts the rows access paths
# return: since a hash probe keeps only the versions inside its period
# bounds and MAX's constant-period level is an interval probe, it is the
# versions alive at the slice, not every version of the key.
WORK_AT_PARENT = {
    "q2": (13, 3, 262, 324),
    "q2b": (19, 3, 262, 327),
    "q3": (13, 6, 47, 69),
    "q5": (17, 4, 44, 53),
    "q6": (43, 6, 47, 68),
    "q7": (177, 9, 44, 101),
    "q7b": (776, 25, 28, 203),
    "q8": (104, 13, 40, 113),
    "q9": (265, 106, 0, 212),
    "q10": (43, 6, 47, 68),
    "q11": (371, 53, 0, 318),
    "q14": (91, 9, 44, 89),
    "q17": (300, 13, 40, 105),
    "q17b": (6364, 178, 2844, 2983),
    "q19": (21, 4, 44, 56),
    "q20": (37, 6, 47, 68),
}


@pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda spec: spec.name)
def test_compiled_bodies_do_the_parents_work(dataset, spec):
    stratum, db = dataset.stratum, dataset.stratum.db
    spec.install(dataset)
    sql = spec.sequenced_sql(dataset, BEGIN, END)
    stratum.execute(sql, strategy=SlicingStrategy.MAX)  # warm
    db.stats.reset()
    stratum.execute(sql, strategy=SlicingStrategy.MAX)
    assert (
        db.obs.value("engine.statements"),
        db.obs.sum_prefix("engine.routine.calls."),
        db.obs.sum_prefix("engine.routine.reuses."),
        db.obs.value("engine.rows_scanned"),
    ) == WORK_AT_PARENT[spec.name]


def test_q17b_compiles_its_three_clones_once(dataset):
    """``engine.psm.compiles``: one per routine body per install — q17b's
    three ``max_*`` clones — and flat from the second execution on."""
    stratum, db = dataset.stratum, dataset.stratum.db
    spec = get_query("q17b")
    spec.install(dataset)
    for routine in db.catalog.routines():
        if routine.name.startswith("max_"):  # the next execution installs anew
            db.catalog.drop_routine(routine.name)
    sql = spec.sequenced_sql(dataset, BEGIN, END)
    before = db.obs.value("engine.psm.compiles")
    stratum.execute(sql, strategy=SlicingStrategy.MAX)
    assert db.obs.value("engine.psm.compiles") - before == 3
    stratum.execute(sql, strategy=SlicingStrategy.MAX)
    assert db.obs.value("engine.psm.compiles") - before == 3


# -- the independent window count ------------------------------------------


def alive(row, point: int) -> bool:
    return row[-2].ordinal <= point < row[-1].ordinal


def cell(rows, point: int) -> tuple:
    """The window the bounds of ``rows`` leave around ``point``."""
    bounds = [bound.ordinal for row in rows for bound in row[-2:]]
    return (
        max((b for b in bounds if b <= point), default=-INF),
        min((b for b in bounds if b > point), default=INF),
    )


def meet(cells) -> tuple:
    return max(lo for lo, _ in cells), min(hi for _, hi in cells)


def period_begins(dataset, tables) -> list[int]:
    context = Period(Date.from_iso(BEGIN).ordinal, Date.from_iso(END).ordinal)
    stratum = dataset.stratum
    return [
        period.begin for period in
        compute_constant_periods(stratum.db, tables, stratum.registry, context)
    ]


def by_column(table, name: str) -> dict:
    index = table.column_index(name)
    grouped: dict = {}
    for row in table.rows:
        grouped.setdefault(row[index], []).append(row)
    return grouped


def test_q2_runs_once_per_author_version_window(dataset):
    run, reused = counted(dataset, "q2")
    catalog = dataset.stratum.db.catalog
    items = by_column(catalog.get_table("item"), "id")
    links = catalog.get_table("item_author")
    versions = by_column(catalog.get_table("author"), "author_id")[
        dataset.cold_author_id
    ]
    invocations, windows = 0, set()
    for point in period_begins(dataset, ["author", "item", "item_author"]):
        for link in links.rows:
            if link[1] == dataset.cold_author_id and alive(link, point):
                for item in items[link[0]]:
                    if alive(item, point):
                        invocations += 1
                        windows.add(cell(versions, point))
    assert (run, reused) == (3, 262)
    assert run == len(windows) and run + reused == invocations


def test_q17b_runs_once_per_read_window(dataset):
    run, reused = counted(dataset, "q17b")
    catalog = dataset.stratum.db.catalog
    item = catalog.get_table("item")
    items = by_column(item, "id")
    links = by_column(catalog.get_table("item_author"), "item_id")
    author = catalog.get_table("author")
    authors = by_column(author, "author_id")
    country = author.column_index("country")
    canadian = {
        aid: [version for version in versions if version[country].rstrip() == "Canada"]
        for aid, versions in authors.items()
    }
    outer: set = set()
    inner: set = set()
    invocations = 0
    for point in period_begins(dataset, ["author", "item", "item_author"]):
        invocations += 1
        if any(lo <= point < hi for lo, hi in outer):
            continue  # canadian_small_books reused: nothing below it runs
        cells = [cell(item.rows, point)]  # the cursor's scan of item
        for iid in sorted(i for i, rows in items.items()
                          if any(alive(row, point) for row in rows)):
            # has_canadian_author: probe the item's links, then the
            # versions of each link alive here; a version that
            # `a.country = 'Canada'` rejects is emitted at no point
            current = [link for link in links.get(iid, []) if alive(link, point)]
            window = meet(
                [cell(links.get(iid, []), point)]
                + [cell(canadian.get(link[1], []), point) for link in current]
            )
            invocations += 1
            inner.add(("has_canadian_author", iid, window))
            cells.append(window)
            if any(
                alive(version, point)
                for link in current for version in canadian.get(link[1], [])
            ):
                # is_small_book: probe the item's versions
                window = cell(items[iid], point)
                invocations += 1
                inner.add(("is_small_book", iid, window))
                cells.append(window)
        outer.add(meet(cells))
    assert (run, reused) == (178, 2844)
    assert run == len(outer) + len(inner)
    assert run + reused == invocations

"""The four workloads: what runs, how often, and what the seed picks.

Workload and template names are fixed; later issues cite them.  To add
a template, add its SQL builder below and one entry to the workload's
``ROUNDS`` table — nothing is renamed, and the committed fingerprints
of the other templates stay valid.

Operation counts are static: a template runs ``ROUNDS[...]`` times when
the run is ``REFERENCE_SECONDS`` long and proportionally more or fewer
for another ``--seconds``, whatever the speed of the program.  Both
sides of a comparison therefore do identical work.

The seed picks each template's context begin (inside year one), the
probe ids and predicate constants, and the wire mix order.  Probe ids
are drawn among entities with the default probe's fan-out and predicate
constants from a narrow band, so every seed asks for the same amount of
work and the spread between seeds is the machine's, not the inputs'.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass

from repro.sqlengine.values import Date
from repro.taubench.datasets import Dataset
from repro.taubench.queries import ALL_QUERIES, get_query
from repro.taubench.simulator import TIMELINE_BEGIN
from repro.temporal.period import Period
from repro.temporal.stratum import SlicingStrategy

REFERENCE_SECONDS = 12  # equals run_seconds in BENCHMARK.json

# rounds per template at REFERENCE_SECONDS, by the template's cost on
# DS1-LARGE x 365 d: one for >= 3 s, two for >= 1 s, three to five for
# >= 0.1 s, twelve and more below that.  The issue's 3/5/10/50 do not
# fit the builder contract's time cap, so the heaviest templates were
# cut first and the data set was left alone.
#
# taupsm_perst leaves out q17b (PERST-inapplicable, paper §VII-A2) and
# q8: under PERST q8 disagrees with MAX (and with the granule-by-granule
# reference) for about two seeds in three, and a workload may hold no
# operation that fails.  BASELINE.md records the finding.
ROUNDS = {
    "taupsm_max": {
        "q2": 3, "q2b": 3, "q3": 3, "q5": 12, "q6": 12, "q7": 3, "q7b": 3,
        "q8": 2, "q9": 3, "q10": 12, "q11": 3, "q14": 3, "q17": 3,
        "q17b": 1, "q19": 12, "q20": 12,
    },
    "taupsm_perst": {
        "q2": 4, "q2b": 4, "q3": 4, "q5": 12, "q6": 12, "q7": 2, "q7b": 4,
        "q9": 12, "q10": 12, "q11": 12, "q14": 2, "q17": 2,
        "q19": 12, "q20": 12,
    },
    "routine_free": {
        "sel_30d": 30, "sel_365d": 30, "range_365d": 30,
        "distinct_365d": 30, "pubsel_365d": 30, "join2_30d": 2,
        "join2_365d": 1, "agg_365d": 5, "grp_365d": 5,
    },
}

STRATEGY = {
    "taupsm_max": SlicingStrategy.MAX,
    "taupsm_perst": SlicingStrategy.PERST,
    "routine_free": SlicingStrategy.AUTO,
}

# routine-free sequenced SELECTs; {p}, {q} are seeded predicate constants
ROUTINE_FREE_SQL = {
    "sel_30d": "SELECT i.id, i.price FROM item i WHERE i.price > {p}",
    "sel_365d": "SELECT i.id, i.price FROM item i WHERE i.price > {p}",
    "range_365d": (
        "SELECT i.id, i.title, i.number_of_pages FROM item i"
        " WHERE i.number_of_pages BETWEEN {q} AND 400 AND i.price < 80"
    ),
    "distinct_365d": "SELECT DISTINCT i.subject FROM item i WHERE i.price > {p}",
    "pubsel_365d": (
        "SELECT p.publisher_id, p.name, p.city FROM publisher p"
        " WHERE p.country <> 'Canada'"
    ),
    "join2_30d": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price > {p}"
    ),
    "join2_365d": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price > {p}"
    ),
    "agg_365d": (
        "SELECT COUNT(*) AS n, AVG(i.price) AS avg_price FROM item i"
        " WHERE i.price > {p}"
    ),
    "grp_365d": "SELECT i.subject, COUNT(*) AS n FROM item i GROUP BY i.subject",
}


@dataclass(frozen=True)
class Template:
    """One statement of a workload, SQL text generated before any clock."""

    name: str
    sql: str
    strategy: SlicingStrategy
    rounds: int
    context: Period
    # how a result is compared with the MAX reference: "raw" demands the
    # same rows in the same order, "coalesced" snapshot equivalence
    check: str


def scaled_rounds(base: int, seconds: float, quick: bool) -> int:
    if quick:
        return 1
    return max(1, round(base * seconds / REFERENCE_SECONDS))


def _context(rng: random.Random, days: int) -> Period:
    begin = TIMELINE_BEGIN.ordinal + rng.randrange(1, 360)
    return Period(begin, begin + days)


def _modifier(context: Period) -> str:
    return (
        f"VALIDTIME [DATE '{Date(context.begin).to_iso()}',"
        f" DATE '{Date(context.end).to_iso()}'] "
    )


def _shapes(dataset: Dataset, table: str, link_table: str, side: int) -> dict:
    """Per entity of ``table``: (versions it has, distinct links it has
    in ``link_table``) — what decides how much work probing it is."""
    catalog = dataset.stratum.db.catalog
    versions = Counter(row[0] for row in catalog.get_table(table).rows)
    links = Counter(
        pair[side]
        for pair in {(row[0], row[1]) for row in catalog.get_table(link_table).rows}
    )
    return {key: (count, links[key]) for key, count in versions.items()}


def _same_shape(shapes: dict, default: str) -> list[str]:
    return sorted(key for key, shape in shapes.items() if shape == shapes[default])


def seeded_probes(dataset: Dataset, rng: random.Random) -> Dataset:
    """The dataset with seeded probe ids shaped like the default probes."""
    authors = _shapes(dataset, "author", "item_author", 1)
    publishers = _shapes(dataset, "publisher", "item_publisher", 1)
    items = _shapes(dataset, "item", "item_author", 0)
    # the names an author was created with: what q2/q2b compare against
    original_names = {
        row[0]: (row[1], row[2])
        for row in dataset.stratum.db.catalog.get_table("author").rows
        if row[-2].ordinal == TIMELINE_BEGIN.ordinal
    }
    cold = rng.choice(_same_shape(authors, dataset.cold_author_id))
    return dataclasses.replace(
        dataset,
        probe_item_id=rng.choice(_same_shape(items, dataset.probe_item_id)),
        probe_author_id=rng.choice(_same_shape(authors, dataset.probe_author_id)),
        probe_publisher_id=rng.choice(
            _same_shape(publishers, dataset.probe_publisher_id)
        ),
        cold_author_id=cold,
        cold_author_first_name=original_names[cold][0],
        cold_author_last_name=original_names[cold][1],
    )


def taupsm_templates(
    workload: str, dataset: Dataset, seed: int, seconds: float, quick: bool
) -> list[Template]:
    """The τPSM queries as sequenced statements.  Inputs depend on the
    seed alone, so ``taupsm_perst``'s MAX reference is statement for
    statement what ``taupsm_max`` runs."""
    rng = random.Random(seed)
    probed = seeded_probes(dataset, rng)
    days = 60 if quick else 365
    templates = []
    for query in ALL_QUERIES:
        context = _context(rng, days)  # drawn for every query: same stream
        if query.name not in ROUNDS[workload]:
            continue
        templates.append(Template(
            name=query.name,
            sql=_modifier(context) + query.conventional_sql(probed),
            strategy=STRATEGY[workload],
            rounds=scaled_rounds(ROUNDS[workload][query.name], seconds, quick),
            context=context,
            check="raw" if workload == "taupsm_max" else "coalesced",
        ))
    return templates


def routine_free_templates(
    seed: int, seconds: float, quick: bool
) -> list[Template]:
    rng = random.Random(seed)
    templates = []
    for name, sql in ROUTINE_FREE_SQL.items():
        days = 30 if name.endswith("_30d") or quick else 365
        context = _context(rng, days)
        constants = {
            "p": round(rng.uniform(49.0, 51.0), 2),
            "q": rng.randrange(195, 206),
        }
        templates.append(Template(
            name=name,
            sql=_modifier(context) + sql.format(**constants),
            strategy=SlicingStrategy.AUTO,
            rounds=scaled_rounds(ROUNDS["routine_free"][name], seconds, quick),
            context=context,
            check="raw",
        ))
    return templates


def templates_for(
    workload: str, dataset: Dataset, seed: int, seconds: float, quick: bool
) -> list[Template]:
    if workload == "routine_free":
        return routine_free_templates(seed, seconds, quick)
    return taupsm_templates(workload, dataset, seed, seconds, quick)


def routines_for(workload: str) -> list:
    """The τPSM queries whose routines a workload installs in set-up."""
    if workload == "routine_free":
        return []
    return [q for q in ALL_QUERIES if q.name in ROUNDS[workload]]


# -- wire_oltp ------------------------------------------------------------

# statements per block and connection; a run is WIRE_BLOCKS blocks.  Both
# connections send the same number of round trips (55 per block), so the
# closed loop keeps both busy to the end.  Over a block: 45 % point reads,
# 9 % joins, 11 % seq_sel_30d, 3 % sequenced q2, 16 % autocommit UPDATE,
# 5 % VALIDTIME UPDATE, 11 % BEGIN + 4 UPDATE + COMMIT (2 transactions).
# The 50 ms sequenced q2 rides on the mixed connection: on the read-only
# one every write would queue behind it now and then, and the write
# latencies would measure that lottery instead of the write path.
WIRE_MIX = {
    0: {"point_read": 11, "join3": 3, "seq_sel_30d": 3, "seq_q2_30d": 3,
        "update": 18, "seq_update": 5, "txn": 2},
    1: {"point_read": 39, "join3": 7, "seq_sel_30d": 9},
}
WIRE_BLOCKS = 20  # at REFERENCE_SECONDS
WIRE_POOL = 64    # ids read, and as many other ids written
WIRE_READS = ("point_read", "join3", "seq_sel_30d", "seq_q2_30d")
TXN_UPDATES = 4


@dataclass(frozen=True)
class WireOp:
    """One operation of a connection: a template and its round trips."""

    template: str
    statements: tuple[str, ...]
    # (item id, price) each UPDATE sets once acknowledged
    prices: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class WirePlan:
    routines: tuple[str, ...]
    cold: tuple[WireOp, ...]  # each template once, before the clock
    # per block, what each connection sends: blocks[b][connection]
    blocks: tuple[tuple[tuple[WireOp, ...], ...], ...]
    read_context: Period


def wire_plan(dataset: Dataset, seed: int, seconds: float, quick: bool) -> WirePlan:
    """Every statement both connections will send, generated up front."""
    rng = random.Random(seed)
    items = sorted({row[0] for row in dataset.stratum.db.catalog.get_table("item").rows})
    pool_size = min(WIRE_POOL, len(items) // 2)  # DS1-SMALL has 48 items
    pool = rng.sample(items, 2 * pool_size)
    read_ids, write_ids = pool[:pool_size], pool[pool_size:]
    now = dataset.stratum.db.now.ordinal
    # sequenced reads look at 30 days that end before `now` and sequenced
    # updates rewrite 30 days after it, so no write changes what a read
    # returns and every read can be checked against a reference
    read_begin = TIMELINE_BEGIN.ordinal + rng.randrange(1, now - TIMELINE_BEGIN.ordinal - 35)
    read_context = Period(read_begin, read_begin + 30)
    write_begin = now + rng.randrange(7, 100)
    write_context = Period(write_begin, write_begin + 30)
    probed = seeded_probes(dataset, rng)
    q2 = get_query("q2")

    def update(item: str) -> tuple[str, tuple[str, float]]:
        price = round(rng.uniform(5.0, 120.0), 2)
        return (
            f"UPDATE item SET price = {price} WHERE id = '{item}'",
            (item, price),
        )

    def build(template: str) -> WireOp:
        if template == "point_read":
            return WireOp(template, (
                "SELECT i.title, i.price FROM item i"
                f" WHERE i.id = '{rng.choice(read_ids)}'",
            ))
        if template == "join3":
            return WireOp(template, (
                "SELECT i.title, a.first_name, a.last_name"
                " FROM item i, item_author ia, author a"
                f" WHERE i.id = '{rng.choice(read_ids)}'"
                " AND ia.item_id = i.id AND a.author_id = ia.author_id",
            ))
        if template == "seq_sel_30d":
            return WireOp(template, (
                _modifier(read_context)
                + "SELECT i.id, i.price FROM item i WHERE i.price > 50",
            ))
        if template == "seq_q2_30d":
            return WireOp(template, (
                _modifier(read_context) + q2.conventional_sql(probed),
            ))
        if template == "update":
            sql, price = update(rng.choice(write_ids))
            return WireOp(template, (sql,), (price,))
        if template == "seq_update":
            return WireOp(template, (
                _modifier(write_context)
                + f"UPDATE item SET number_of_pages = {rng.randrange(80, 900)}"
                f" WHERE id = '{rng.choice(write_ids)}'",
            ))
        updates = [update(item) for item in rng.sample(write_ids, TXN_UPDATES)]
        return WireOp(
            "txn",
            ("BEGIN", *(sql for sql, _ in updates), "COMMIT"),
            tuple(price for _, price in updates),
        )

    blocks = []
    for _ in range(scaled_rounds(WIRE_BLOCKS, seconds, quick)):
        block = []
        for mix in WIRE_MIX.values():
            ops = [
                build(template)
                for template, count in mix.items()
                for _ in range(count)
            ]
            rng.shuffle(ops)
            block.append(tuple(ops))
        blocks.append(tuple(block))
    cold = tuple(build(t) for t in (*WIRE_READS, "update", "seq_update", "txn"))
    return WirePlan(tuple(q2.routines), cold, tuple(blocks), read_context)

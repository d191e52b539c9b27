"""Revalidation ≡ no cache at all: random interleavings of schema changes
and statements.

Cached transforms, prepared statements and plans are served while
nothing their statement reaches changed since they were stored
(``Catalog.unchanged_since``).  Here hypothesis interleaves CREATE /
replace / DROP of routines, a table and a view over it, ADD VALIDTIME,
BEGIN / COMMIT / ROLLBACK, and sequenced, current and conventional
statements that reach those objects — directly, through another
routine, through the view, or by a name that is a built-in until a
routine takes it.  Every step's outcome (rows in order, or the error's
class and SQLSTATE) must equal the same step on a twin database whose
caches are emptied before every statement.

Mutation-checked: revalidating from the statement's own names only, or
skipping a name that resolves to nothing (a dropped routine whose clone
is still installed), makes this test fail.  The two rules the engine
also enforces at run time — a view's body (each view is planned as its
own cache entry, and ``_Query`` re-checks the view and its columns) and
the stamp a rollback puts on every name it restores (version counters
only ever grow) — are checked on the helper itself below, and the
rollback case also end to end.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sqlengine.parser import parse_statement
from repro.temporal import SlicingStrategy

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

CONTEXT = "VALIDTIME [DATE '2010-02-01', DATE '2010-07-01'] "

FUNCTION = """
CREATE FUNCTION {name} (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  RETURN {body};
END
"""
ROUTINES = {
    "get_author_name": {
        "first": GET_AUTHOR_NAME,
        "last": GET_AUTHOR_NAME.replace("SELECT first_name", "SELECT last_name"),
        "constant": FUNCTION.format(name="get_author_name", body="'none'"),
    },
    "outer_name": {
        "through": FUNCTION.format(name="outer_name", body="get_author_name(aid)"),
        "shelf": FUNCTION.format(
            name="outer_name", body="(SELECT MAX(id) FROM shelf WHERE id <> aid)"
        ),
    },
    # a built-in until created: MAX must clone it once it reads valid time
    "abs": {
        "temporal": """
CREATE FUNCTION abs (x FLOAT)
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  RETURN (SELECT COUNT(*) FROM item_author);
END
""",
    },
}
SHELVES = {
    "narrow": [
        "CREATE TABLE shelf (id CHAR(10), qty INTEGER)",
        "INSERT INTO shelf VALUES ('i1', 3), ('i2', 9)",
    ],
    "swapped": [
        "CREATE TABLE shelf (qty INTEGER, id CHAR(10))",
        "INSERT INTO shelf VALUES (7, 'i2'), (1, 'i3')",
    ],
}
VIEWS = {
    "any": "CREATE VIEW stocked AS SELECT id, qty FROM shelf WHERE qty > 0",
    "many": "CREATE VIEW stocked AS SELECT id, qty FROM shelf WHERE qty > 5",
}
QUERIES = [
    (CONTEXT + "SELECT outer_name(author_id) FROM author WHERE author_id = 'a1'",
     SlicingStrategy.MAX),
    (CONTEXT + "SELECT outer_name(author_id) FROM author WHERE author_id = 'a1'",
     SlicingStrategy.PERST),
    (CONTEXT + "SELECT get_author_name(author_id) FROM author", SlicingStrategy.MAX),
    ("SELECT outer_name(author_id) FROM author", SlicingStrategy.AUTO),
    ("SELECT id, qty FROM shelf ORDER BY id", SlicingStrategy.AUTO),
    ("SELECT id, qty FROM stocked ORDER BY id", SlicingStrategy.AUTO),
    (CONTEXT + "SELECT id, abs(price) FROM item", SlicingStrategy.MAX),
    (CONTEXT + "SELECT s.id, i.title FROM shelf s, item i WHERE s.id = i.id",
     SlicingStrategy.MAX),
]

routine_changes = st.one_of(
    st.sampled_from([
        (name, variant) for name, variants in ROUTINES.items() for variant in variants
    ]).map(lambda pair: ("routine",) + pair),
    st.sampled_from(sorted(ROUTINES)).map(lambda name: ("drop_routine", name)),
)
changes = st.one_of(
    routine_changes,
    st.sampled_from(sorted(SHELVES)).map(lambda variant: ("shelf", variant)),
    st.sampled_from(sorted(VIEWS)).map(lambda variant: ("view", variant)),
    st.just(("drop_view",)),
    st.just(("add_validtime",)),
)
# a statement cached inside a BEGIN ... ROLLBACK window that changes what
# it reads, then run again after the ROLLBACK: the restored names must
# not serve what the window cached.  Half of them change a routine a
# query calls, which no run-time check of a plan catches
ROUTINE_QUERIES = [
    n for n, (sql, _) in enumerate(QUERIES) if any(name + "(" in sql for name in ROUTINES)
]
windows = st.one_of(
    st.tuples(st.sampled_from(range(len(QUERIES))), changes),
    st.tuples(st.sampled_from(ROUTINE_QUERIES), routine_changes),
).map(lambda pair: ("window",) + pair)
steps = st.one_of(
    st.sampled_from(range(len(QUERIES))).map(lambda n: ("query", n)),
    changes,
    windows,
    st.sampled_from(["BEGIN", "COMMIT", "ROLLBACK"]).map(lambda sql: ("txn", sql)),
)


def statements(step) -> list:
    """The ``(sql, strategy)`` pairs one step submits."""
    kind = step[0]
    if kind == "query":
        return [QUERIES[step[1]]]
    if kind == "routine":
        name, variant = step[1], step[2]
        return [(f"DROP FUNCTION {name}", None), (ROUTINES[name][variant], None)]
    if kind == "drop_routine":
        return [(f"DROP FUNCTION {step[1]}", None)]
    if kind == "shelf":
        return [("DROP TABLE shelf", None)] + [
            (sql, None) for sql in SHELVES[step[1]]
        ]
    if kind == "view":
        return [("DROP VIEW stocked", None), (VIEWS[step[1]], None)]
    if kind == "drop_view":
        return [("DROP VIEW stocked", None)]
    if kind == "add_validtime":
        return [("ALTER TABLE shelf ADD VALIDTIME", None)]
    if kind == "window":
        query = QUERIES[step[1]]
        return [("BEGIN", None), *statements(step[2]), query, ("ROLLBACK", None), query]
    return [(step[1], None)]


def outcome(stratum, sql, strategy):
    try:
        result = stratum.execute(sql, strategy or SlicingStrategy.AUTO)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc).__name__, getattr(exc, "sqlstate", None))
    if hasattr(result, "rows"):
        return ("ok", list(result.columns), [list(row) for row in result.rows])
    return ("ok", result)


def build():
    stratum = make_bookstore()
    for sql in [
        ROUTINES["get_author_name"]["first"], ROUTINES["outer_name"]["through"],
        *SHELVES["narrow"], VIEWS["any"],
    ]:
        stratum.execute(sql)
    return stratum


def forget(stratum) -> None:
    """Empty every cache of compiled artifacts."""
    stratum._transform_cache.clear()
    stratum.db.plan_cache.clear()
    stratum.db.expr_cache.clear()


@settings(max_examples=40, deadline=None)
# a rolled-back ADD VALIDTIME must take its period pair's interval
# declaration with its columns
@example([("txn", "BEGIN"), ("add_validtime",), ("txn", "ROLLBACK"), ("query", 4)])
@given(st.lists(steps, min_size=4, max_size=24))
def test_revalidated_caches_equal_no_caches(sequence):
    measured, twin = build(), build()
    # warm every statement once, so the steps below meet cached entries
    for sql, strategy in QUERIES:
        outcome(measured, sql, strategy)
        outcome(twin, sql, strategy)
    for step in sequence:
        for sql, strategy in statements(step):
            forget(twin)
            expected = outcome(twin, sql, strategy)
            assert outcome(measured, sql, strategy) == expected, (step, sql)


def test_a_view_body_is_walked():
    """The table under a view is among the names a statement over the
    view reaches."""
    stratum = build()
    catalog = stratum.db.catalog
    stmt = parse_statement("SELECT id FROM stocked")
    stamp = catalog.schema_version
    stratum.execute("CREATE TABLE unrelated (x INTEGER)")
    assert catalog.unchanged_since(stamp, stmt)
    stratum.execute("DROP TABLE shelf")
    assert not catalog.unchanged_since(stamp, stmt)


def test_rollback_lowers_no_stamp():
    """A name changed inside a rolled-back window stays changed for every
    stamp taken before the window, and the version moves forward."""
    stratum = build()
    catalog = stratum.db.catalog
    stmt = parse_statement("SELECT id FROM shelf")
    stamp = catalog.schema_version
    stratum.execute("BEGIN")
    for sql in ["DROP TABLE shelf", *SHELVES["swapped"]]:
        stratum.execute(sql)
    window = catalog.schema_version
    stratum.execute("ROLLBACK")
    assert catalog.schema_version > window
    stratum.execute("CREATE TABLE unrelated (x INTEGER)")
    assert not catalog.unchanged_since(stamp, stmt)
    assert not catalog.unchanged_since(window, stmt)


def test_a_rolled_back_routine_stops_shadowing_the_built_in():
    """A routine created under a built-in's name inside a window that is
    rolled back: the statement cached inside the window answers with the
    built-in when it runs again, because undoing the CREATE stamps the
    name (a routine under it shadowed the built-in, :meth:`unchanged_since`)."""
    stratum = build()
    sql, strategy = QUERIES[6]  # abs(price) under MAX
    expected = outcome(stratum, sql, strategy)
    stratum.execute("BEGIN")
    stratum.execute(ROUTINES["abs"]["temporal"])
    shadowed = outcome(stratum, sql, strategy)
    assert outcome(stratum, sql, strategy) == shadowed  # served from the cache
    assert shadowed[0] == "ok" and shadowed != expected
    stratum.execute("ROLLBACK")
    assert outcome(stratum, sql, strategy) == expected

"""Property-based fuzzing of sequenced semantics.

Hypothesis generates random version histories (``tests/oracle/
test_corpus.py``'s generator) and a family of queries (joins,
predicates, stored-function calls); for each we assert the paper's
§VII-B invariant with the timeslice oracle (``tests/oracle``): every
strategy's result, snapshot by snapshot and multiplicities included,
equals the conventional query on the timeslice — or the strategy
refuses with the typed refusal the corpus expects.  The corpus runs
these families on random histories; here they also run on one history
holding every period shape at once.  The transaction-time dimension and
EXPLAIN ANALYZE's bookkeeping are checked on the same histories.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.errors import PerStatementInapplicableError

from tests.oracle import check, contents, timeslice
from tests.oracle.test_corpus import (
    BASE,
    CONTEXT,
    EVERY,
    FAMILIES,
    SPAN,
    build_stratum,
    sequenced,
    verdicts,
    versions,
)

# the corpus families the other differential fuzzers share
NAMES = ("selection", "join", "self-join", "distinct")
QUERIES = [FAMILIES[name] for name in NAMES]
FN_QUERY = FAMILIES["scalar-function"]

# one history with every period shape the generator draws, at once (as
# (key, value, begin offset, length, shape); key 3 is NULL): a version
# repeated verbatim, a value-equal and a value-changing overlap, one
# version beginning where the previous ended, NULL at either bound,
# forever, empty and inverted periods, NULL keys on both sides
EVERY_SHAPE_FACT = [
    (1, 1, 8, 20, 9), (1, 2, 0, 15, 3), (1, 1, 25, 35, 9), (1, 1, 8, 20, 9),
    (0, 3, 5, 30, 2), (0, 0, 3, 10, 0), (2, 3, 15, 10, 1), (2, 1, 12, 0, 9),
    (2, 1, 20, -2, 9), (3, 2, 10, 20, 9),
]
EVERY_SHAPE_DIM = [
    (1, 1, 0, SPAN, 9), (1, 1, 0, SPAN, 9), (0, 3, 10, 30, 2), (2, 1, 5, 10, 9),
    (2, 2, 15, 10, 3), (3, 2, 5, 20, 9),
]


def test_random_histories_strategies_agree():
    """On the every-shape history each fuzzed family, the stored-function
    one included, equals the oracle under every strategy, or refuses as
    the corpus expects (PERST's DISTINCT)."""
    stratum = build_stratum(EVERY_SHAPE_FACT, EVERY_SHAPE_DIM)
    for name in NAMES + ("scalar-function",):
        sql = sequenced(FAMILIES[name])
        assert check(stratum, sql, EVERY) == verdicts(name, EVERY), name


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fact=versions, dim=versions)
def test_random_histories_commutativity(fact, dim):
    """MAX and PERST match the timeslice reference on a query that
    routes an aggregate through a stored function (PERST's loop
    fallback)."""
    stratum = build_stratum(fact, dim)
    assert check(
        stratum, sequenced(FN_QUERY), (SlicingStrategy.MAX, SlicingStrategy.PERST)
    ) == {SlicingStrategy.MAX: "agrees", SlicingStrategy.PERST: "agrees"}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fact=versions, dim=versions, query_index=st.integers(0, len(QUERIES) - 1))
def test_random_histories_explain_analyze(fact, dim, query_index):
    """Observability must not perturb semantics: for every fuzzed
    statement, EXPLAIN ANALYZE (which executes under tracing) returns
    the same temporal relation as the untraced run, and the counts it
    reports agree with the metrics registry and the span tree."""
    from repro.temporal.constant_periods import compute_constant_periods

    stratum = build_stratum(fact, dim)
    query = QUERIES[query_index]
    sql = sequenced(query)
    for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
        assert stratum.db.tracer.enabled is False
        try:
            plain = stratum.execute(sql, strategy=strategy)
        except PerStatementInapplicableError:
            with pytest.raises(PerStatementInapplicableError):
                stratum.execute("EXPLAIN ANALYZE " + sql, strategy=strategy)
            continue
        obs = stratum.db.obs
        slices_before = obs.value("stratum.slices")
        calls_before = obs.sum_prefix("engine.routine.calls.")
        analyzed = stratum.execute(
            "EXPLAIN ANALYZE " + sql, strategy=strategy
        )
        # identical results with tracing on and off
        assert Counter(map(tuple, analyzed.result.rows)) == Counter(map(tuple, plain.rows))
        # tracer state restored
        assert stratum.db.tracer.enabled is False
        # slice accounting is internally consistent
        slices = obs.value("stratum.slices") - slices_before
        if strategy is SlicingStrategy.MAX:
            tables = ["fact"] if "dim" not in query else ["fact", "dim"]
            expected = len(
                compute_constant_periods(
                    stratum.db, tables, stratum.registry, CONTEXT
                )
            )
            assert slices == expected
            root = stratum.db.tracer.last_root
            assert root.find("stratum.constant_periods").attrs["slices"] == slices
        # routine invocations in the span tree match the engine counter
        calls = obs.sum_prefix("engine.routine.calls.") - calls_before
        root = stratum.db.tracer.last_root
        assert len(root.find_all("routine")) == calls


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fact=versions)
def test_random_histories_transaction_dimension(fact):
    """The same invariants hold along the transaction-time dimension."""
    stratum = TemporalStratum()
    stratum.db.execute("CREATE TABLE tfact (entity CHAR(4), val INTEGER)")
    stratum.db.now = Date(BASE)
    stratum.execute("ALTER TABLE tfact ADD TRANSACTIONTIME")
    # replay as modifications at increasing clock times
    for entity, value, start, *_ in sorted(fact, key=lambda v: v[2]):
        stratum.db.now = Date(BASE + start)
        existing = stratum.execute(
            f"SELECT val FROM tfact WHERE entity = 'e{entity}'"
        ).rows
        if existing:
            stratum.execute(
                f"UPDATE tfact SET val = {value} WHERE entity = 'e{entity}'"
            )
        else:
            stratum.execute(
                f"INSERT INTO tfact (entity, val) VALUES ('e{entity}', {value})"
            )
    stratum.db.now = Date(BASE + SPAN)
    sequenced_tt = (
        f"TRANSACTIONTIME [DATE '{Date(CONTEXT.begin).to_iso()}',"
        f" DATE '{Date(CONTEXT.end).to_iso()}']"
        " SELECT entity, val FROM tfact"
    )
    assert check(stratum, sequenced_tt, EVERY) == {s: "agrees" for s in EVERY}
    # time-travel consistency: the state as of any clock is the
    # oracle's transaction-time slice at that granule
    probe = BASE + SPAN // 2
    stratum.transaction_clock = Date(probe)
    state = Counter(
        tuple(r) for r in stratum.execute("SELECT entity, val FROM tfact").rows
    )
    stratum.transaction_clock = None
    assert state == contents(timeslice(stratum, probe, dimension="TRANSACTION"))["tfact"]

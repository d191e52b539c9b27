"""Differential: every fast path ≡ the reference evaluators.

The engine picks its fast paths from the statement alone: interval
probes, typed filters, the routine-result memo, SEQ-SET.  The reference
(``tests/reference_executor.py`` + ``tests/reference_psm.py``) takes none
of them — a FROM-order nested loop over full scans that walks the AST,
and a PSM walker that runs every invocation.  Installed beneath the
stratum, it runs the same transformed statements, so the results must
agree raw: columns, rows, order and duplicates, or the same error class.
No licence is needed here: these queries hold no raising conjunct, so
the nested loop never raises on a combination the pipeline rejects (``test_join_pipeline.py`` checks that
licence where it applies).

* Random histories (the oracle corpus's generator, ``test_fuzz_sequenced``'s
  queries):
  MAX and PERST on both sides, AUTO on the engine against MAX on the
  reference.
* The τPSM suite on DS1-SMALL under MAX, over contexts short enough for
  the reference: one month, one week for q8, three days for q17b.
* PERST on the ten τPSM queries that are cheap on the reference.  The
  other five are held to the timeslice oracle in ``test_equivalence.py``.
* A sanity test that the engine took its fast paths and the reference
  did not.

SEQ-SET reads table structures directly, so installing the reference
does not take it off its fast path: AUTO's reference side is MAX.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine.errors import SqlError
from repro.taubench import ALL_QUERIES, get_query
from repro.temporal import SlicingStrategy

from tests.integration.test_fuzz_sequenced import FN_QUERY, QUERIES
from tests.oracle.test_corpus import build_stratum, sequenced, versions
from tests.reference_executor import installed

MAX, PERST, AUTO = SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO
MONTH = ("2010-02-01", "2010-03-01")
WEEK = ("2010-02-01", "2010-02-08")
# shorter MAX contexts for the two queries the reference is slowest on
CONTEXTS = {"q8": WEEK, "q17b": ("2010-02-01", "2010-02-04")}
CHEAP_PERST = ("q5", "q6", "q7b", "q9", "q10", "q11", "q14", "q17", "q19", "q20")


def outcome(stratum, sql, strategy):
    """('rows', every result set raw) or ('error', class)."""
    try:
        result = stratum.execute(sql, strategy=strategy)
    except SqlError as exc:
        return "error", type(exc)
    results = result if isinstance(result, list) else [result]
    return "rows", [(list(r.columns), [list(row) for row in r.rows]) for r in results]


def reference_outcome(stratum, sql, strategy):
    with installed(stratum.db):
        return outcome(stratum, sql, strategy)


def check_history(stratum, query):
    sql = sequenced(query)
    reference = {
        strategy: reference_outcome(stratum, sql, strategy) for strategy in (MAX, PERST)
    }
    for strategy in (MAX, PERST, AUTO):
        stratum.last_strategy = None
        engine = outcome(stratum, sql, strategy)
        ran = strategy
        if strategy is AUTO:
            # what AUTO chose; SEQ-SET's reference is MAX
            assert stratum.last_strategy is not None, (query, engine)
            ran = PERST if stratum.last_strategy is PERST else MAX
        assert engine == reference[ran], (query, strategy.value, engine, reference[ran])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fact=versions, dim=versions, query_index=st.integers(0, len(QUERIES) - 1))
def test_random_histories(fact, dim, query_index):
    check_history(build_stratum(fact, dim), QUERIES[query_index])


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fact=versions, dim=versions)
def test_random_histories_routine_path(fact, dim):
    """A routine body under MAX's per-period loop and PERST's row loop."""
    check_history(build_stratum(fact, dim), FN_QUERY)


# the reference's τPSM outcomes by (query, strategy, context): the
# reference is slow and the session's DS1-SMALL never changes, so each is
# computed once, also for the older test names that import these tests
REFERENCE_OUTCOMES: dict = {}


def check_taupsm(dataset, query, strategy, context):
    query.install(dataset)
    sql = query.sequenced_sql(dataset, *context)
    key = (query.name, strategy, context)
    if key not in REFERENCE_OUTCOMES:
        REFERENCE_OUTCOMES[key] = reference_outcome(dataset.stratum, sql, strategy)
    reference = REFERENCE_OUTCOMES[key]
    assert reference[0] == "rows", (query.name, reference)
    assert outcome(dataset.stratum, sql, strategy) == reference, query.name


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_taupsm_max(query, small_dataset):
    check_taupsm(small_dataset, query, MAX, CONTEXTS.get(query.name, MONTH))


@pytest.mark.parametrize("name", CHEAP_PERST)
def test_taupsm_perst(name, small_dataset):
    check_taupsm(small_dataset, get_query(name), PERST, WEEK)


COUNTERS = (
    "engine.interval_index_hits",
    "engine.join.aligned",
    "engine.join.level_rejects",
    "engine.routine.reuses.",  # the per-routine family's total
)


def test_engine_takes_the_fast_paths_and_the_reference_does_not(small_dataset):
    """MAX over ``price > 50``: the constant-period join aligned in one
    pass — an interval probe on the periods' range, then a typed filter
    on the price, which the index cannot decide, rejecting candidates
    once each.  q2 under MAX: a routine served by the memo."""
    stratum, db = small_dataset.stratum, small_dataset.stratum.db
    q2 = get_query("q2")
    q2.install(small_dataset)
    statements = [
        (f"VALIDTIME [DATE '{MONTH[0]}', DATE '{MONTH[1]}']"
         " SELECT i.id, i.title FROM item i WHERE i.price > 50", MAX, MAX),
        (q2.sequenced_sql(small_dataset, *MONTH), MAX, MAX),
    ]

    def grown(run, side):
        before = [db.obs.sum_prefix(name) for name in COUNTERS]
        results = [run(stratum, sql, strategies[side]) for sql, *strategies in statements]
        return results, {
            name: db.obs.sum_prefix(name) - was for name, was in zip(COUNTERS, before)
        }

    engine, fast = grown(outcome, 0)
    reference, slow = grown(reference_outcome, 1)
    assert engine == reference
    assert all(fast.values()), fast
    assert not any(slow.values()), slow

"""§VII-F heuristic tests: the rules, the rule each τPSM query and
routine-free benchmark template takes, and the one chooser's surface."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.taubench import ALL_QUERIES, build_dataset, get_query
from repro.temporal import SlicingStrategy
from repro.temporal.analysis import uses_per_period_cursors
from repro.temporal.heuristic import (
    SHORT_CONTEXT_DAYS,
    choose_strategy,
    temporal_row_count,
)
from repro.temporal.perst_slicing import PerstTransformer
from repro.temporal.period import Period

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

CURSOR_FN = """
CREATE FUNCTION scan_titles () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE t CHAR(100);
  DECLARE n INTEGER DEFAULT 0;
  DECLARE c CURSOR FOR SELECT title FROM item;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN c;
  w: WHILE done = 0 DO
    FETCH c INTO t;
    IF done = 0 THEN SET n = n + 1; END IF;
  END WHILE w;
  CLOSE c;
  RETURN n;
END
"""


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    return s


def choice(stratum, sql, context, rows=None):
    return choose_strategy(
        parse_statement(sql), stratum, stratum.registry, context, data_rows=rows
    )


class TestRules:
    QUERY = "VALIDTIME SELECT get_author_name('a1') FROM item"

    def test_rule_a_inapplicable_forces_max(self, stratum):
        stratum.register_routine("""
        CREATE FUNCTION selfref () RETURNS FLOAT READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE p FLOAT;
          SET p = (SELECT price FROM item WHERE id = 'i1');
          SET p = p + 1.0;
          RETURN p;
        END
        """)
        result = choice(
            stratum, "VALIDTIME SELECT selfref() FROM item",
            Period.from_iso("2010-01-01", "2011-01-01"),
        )
        assert result.strategy is SlicingStrategy.MAX
        assert result.rule == "a"

    def test_rule_b_cursors_and_large_data(self, stratum):
        stratum.register_routine(CURSOR_FN)
        result = choice(
            stratum, "VALIDTIME SELECT scan_titles() FROM item",
            Period.from_iso("2010-01-01", "2011-01-01"),
            rows=100_000,
        )
        assert result.strategy is SlicingStrategy.MAX
        assert result.rule == "b"

    def test_rule_c_small_and_short(self, stratum):
        result = choice(
            stratum, self.QUERY, Period.from_iso("2010-01-01", "2010-01-05")
        )
        assert result.strategy is SlicingStrategy.MAX
        assert result.rule == "c"

    def test_default_perst(self, stratum):
        result = choice(
            stratum, self.QUERY, Period.from_iso("2010-01-01", "2011-01-01")
        )
        assert result.strategy is SlicingStrategy.PERST
        assert result.rule == "default"

    def test_large_data_short_context_not_rule_c(self, stratum):
        result = choice(
            stratum, self.QUERY,
            Period.from_iso("2010-01-01", "2010-01-05"),
            rows=1_000_000,
        )
        assert result.rule != "c"


class TestHelpers:
    def test_temporal_row_count(self, stratum):
        stmt = parse_statement("SELECT get_author_name('a1') FROM item")
        count = temporal_row_count(stmt, stratum.db, stratum.registry)
        assert count == len(stratum.db.catalog.get_table("author")) + len(
            stratum.db.catalog.get_table("item")
        )

    def test_uses_per_period_cursors(self, stratum):
        stratum.register_routine(CURSOR_FN)
        catalog = stratum.db.catalog
        stmt = parse_statement("SELECT scan_titles()")
        assert uses_per_period_cursors(stmt, catalog, stratum.registry)
        # a cursor over a conventional table that reaches temporal data
        # through a function: PERST evaluates it per constant period, so
        # rule (b) counts it too
        stratum.db.execute("CREATE TABLE plain (aid CHAR(10))")
        stratum.register_routine(CURSOR_FN.replace(
            "scan_titles", "names_via_fn"
        ).replace("SELECT title FROM item", "SELECT get_author_name(p.aid) FROM plain p"))
        stmt = parse_statement("SELECT names_via_fn()")
        assert uses_per_period_cursors(stmt, catalog, stratum.registry)
        found = PerstTransformer(catalog, stratum.registry).transform(
            parse_statement("VALIDTIME SELECT names_via_fn()")
        )
        assert found.cp_requirements == {"taupsm_cp_names_via_fn": ["author"]}

    def test_no_cursor_detected(self, stratum):
        stmt = parse_statement("SELECT get_author_name('a1')")
        assert not uses_per_period_cursors(stmt, stratum.db.catalog, stratum.registry)

    def test_perst_applicable_helper(self, stratum):
        """Rule (a)'s question, put to the stratum's candidate function."""
        context = Period.from_iso("2010-01-01", "2011-01-01")
        found = stratum.candidate(
            "perst",
            parse_statement("SELECT get_author_name('a1') FROM item"),
            stratum.registry, context,
        )
        assert found.applicable

    def test_short_context_constant_sane(self):
        assert 1 <= SHORT_CONTEXT_DAYS <= 100


class TestSeqSetJoinShape:
    """Rule (s) claims every routine-free join SEQ-SET covers, keyed or
    key-less."""

    CONTEXT = Period.from_iso("2010-01-01", "2011-01-01")
    JOIN = "VALIDTIME SELECT i.title FROM item i, item_author ia WHERE "
    KEYED = JOIN + "i.id = ia.item_id"
    KEYLESS = JOIN + "i.id < ia.item_id"

    def test_keyed_join_is_seqset_by_rule_s(self, stratum):
        result = choice(stratum, self.KEYED, self.CONTEXT)
        assert result.strategy is SlicingStrategy.SEQSET
        assert result.rule == "s"

    def test_keyless_join_takes_rule_s(self, stratum):
        """A key-less level is a cross product under every strategy; the
        set-oriented pass is still the one that needs no per-period loop."""
        result = choice(stratum, self.KEYLESS, self.CONTEXT)
        assert result.strategy is SlicingStrategy.SEQSET
        assert result.rule == "s"
        assert result.reason == (
            "routine-free statement covered by the set-oriented plan"
        )


class TestOneChooser:
    """The §VII-F rules are the only chooser: ``COST`` survives as a
    second name for ``AUTO`` and nowhere as a strategy name (the shell,
    ``SET STRATEGY`` and ``--strategy`` refusals: ``tests/test_cli.py``)."""

    def test_cost_is_auto(self):
        assert SlicingStrategy.COST is SlicingStrategy.AUTO
        assert [s.value for s in SlicingStrategy] == ["max", "perst", "auto", "seqset"]


CONTEXT_DAYS = 90


def sequenced_stmt(dataset, query, days=CONTEXT_DAYS):
    query.install(dataset)
    begin, end = dataset.context_bounds(days)
    return parse_statement(query.sequenced_sql(dataset, begin, end))


# rule fired per query at a 90-day context: everything PERST-able
# defaults to PERST; q17b's non-nested FETCH and q8's ordered FOR whose
# last row wins make PERST inapplicable (a)
EXPECTED_RULE_90D = {
    "q2": "default", "q2b": "default", "q3": "default", "q5": "default",
    "q6": "default", "q7": "default", "q7b": "default", "q8": "a",
    "q9": "default", "q10": "default", "q11": "default", "q14": "default",
    "q17": "default", "q17b": "a", "q19": "default", "q20": "default",
}

# at the one-week boundary every applicable query trips rule (c)
# (DS1-SMALL is "small" at ~1k temporal rows)
EXPECTED_RULE_7D = {
    name: ("a" if rule == "a" else "c") for name, rule in EXPECTED_RULE_90D.items()
}

# queries whose reachable routines drive cursors over temporal data:
# with a large data set these trip rule (b)
CURSOR_QUERIES = {"q7", "q7b", "q14", "q17", "q17b"}


class TestRuleRegression:
    """The rule (a/b/c/default) that fires for every benchmark query on
    DS1-SMALL, at a 90-day context and at the paper's one-week "short
    context" boundary."""

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_rule_at_90_days(self, small_dataset, query):
        stratum = small_dataset.stratum
        stmt = sequenced_stmt(small_dataset, query)
        choice = choose_strategy(
            stmt, stratum, stratum.registry, small_dataset.context(CONTEXT_DAYS)
        )
        assert choice.rule == EXPECTED_RULE_90D[query.name]
        expected = (
            SlicingStrategy.MAX if choice.rule == "a" else SlicingStrategy.PERST
        )
        assert choice.strategy is expected

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_rule_at_one_week(self, small_dataset, query):
        stratum = small_dataset.stratum
        stmt = sequenced_stmt(small_dataset, query, days=7)
        choice = choose_strategy(
            stmt, stratum, stratum.registry, small_dataset.context(7)
        )
        assert choice.rule == EXPECTED_RULE_7D[query.name]
        assert choice.strategy is SlicingStrategy.MAX

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_rule_b_on_large_data(self, small_dataset, query):
        """With the row count forced past the rule-(b) threshold, the
        cursor-driving queries flip to MAX; the rest stay PERST."""
        stratum = small_dataset.stratum
        stmt = sequenced_stmt(small_dataset, query)
        choice = choose_strategy(
            stmt,
            stratum,
            stratum.registry,
            small_dataset.context(CONTEXT_DAYS),
            data_rows=10_000,
        )
        if EXPECTED_RULE_90D[query.name] == "a":
            assert choice.rule == "a"
        elif query.name in CURSOR_QUERIES:
            assert choice.rule == "b"
            assert choice.strategy is SlicingStrategy.MAX
        else:
            assert choice.rule == "default"
            assert choice.strategy is SlicingStrategy.PERST


def test_q8_under_auto_is_max(small_dataset):
    """PERST refuses q8 (its ordered FOR keeps the last row of each
    snapshot), so AUTO answers it as MAX does, row for row."""
    from repro.temporal.errors import PerStatementInapplicableError

    stratum = small_dataset.stratum
    query = get_query("q8")
    query.install(small_dataset)
    sql = query.sequenced_sql(small_dataset, *small_dataset.context_bounds(365))
    auto = stratum.execute(sql)
    assert stratum.last_strategy is SlicingStrategy.MAX
    assert auto.rows == stratum.execute(sql, SlicingStrategy.MAX).rows
    assert auto.rows
    with pytest.raises(PerStatementInapplicableError, match="cf. q8"):
        stratum.execute(sql, SlicingStrategy.PERST)


# (strategy, rule) from choose_strategy at 1, 7, 30 and 365 days, the same
# on DS1-SMALL and DS1-LARGE.  These are the decisions the rules took
# beside the deleted cost model, but for q8, which PERST now refuses (it
# took max/c at 1 and 7 days, perst/default at 30 and 365); a key-less
# join now takes rule (s) (TestSeqSetJoinShape).
SHORT, LONG, REFUSED = ("max", "c"), ("perst", "default"), ("max", "a")
TAUPSM_DECISIONS = {
    query.name: (SHORT, SHORT, LONG, LONG) for query in ALL_QUERIES
}
TAUPSM_DECISIONS.update(q8=(REFUSED,) * 4, q17b=(REFUSED,) * 4)
ROUTINE_FREE_DECISIONS = {
    "sel_30d": ("seqset", "s"), "sel_365d": ("seqset", "s"),
    "range_365d": ("seqset", "s"), "distinct_365d": ("seqset", "s"),
    "pubsel_365d": ("seqset", "s"), "join2_30d": ("seqset", "s"),
    "join2_365d": ("seqset", "s"), "agg_365d": REFUSED, "grp_365d": REFUSED,
}


@pytest.fixture(scope="module", params=["SMALL", "LARGE"])
def sized_dataset(request):
    return build_dataset("DS1", request.param)


class TestDecisionParity:
    """Every benchmark decision stays what it was, q8 aside: each τPSM
    query × {1, 7, 30, 365} days and each ``routine_free`` template of
    the end-to-end benchmark."""

    @staticmethod
    def decided(dataset, stmt, context):
        stratum = dataset.stratum
        found = choose_strategy(stmt, stratum, stratum.registry, context)
        return found.strategy.value, found.rule

    def test_taupsm(self, sized_dataset):
        decided = {}
        for query in ALL_QUERIES:
            decided[query.name] = tuple(
                self.decided(
                    sized_dataset, sequenced_stmt(sized_dataset, query, days),
                    sized_dataset.context(days),
                )
                for days in (1, 7, 30, 365)
            )
        assert decided == TAUPSM_DECISIONS

    def test_routine_free(self, sized_dataset):
        from benchmarks.e2e.workloads import routine_free_templates

        decided = {
            template.name: self.decided(
                sized_dataset, parse_statement(template.sql), template.context
            )
            for template in routine_free_templates(20120401, 12, False)
        }
        assert decided == ROUTINE_FREE_DECISIONS

"""§VII-F heuristic and cost-model tests."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.temporal import SlicingStrategy
from repro.temporal.heuristic import (
    SHORT_CONTEXT_DAYS,
    choose_strategy,
    estimate_costs,
    temporal_row_count,
    uses_per_period_cursors,
)
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
        stmt = parse_statement("SELECT scan_titles()")
        assert uses_per_period_cursors(stmt, stratum.db, stratum.registry)

    def test_no_cursor_detected(self, stratum):
        stmt = parse_statement("SELECT get_author_name('a1')")
        assert not uses_per_period_cursors(stmt, stratum.db, stratum.registry)

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


class TestCostModel:
    def test_costs_positive(self, stratum):
        stmt = parse_statement("SELECT get_author_name('a1') FROM item")
        estimate = estimate_costs(
            stmt, stratum.db, stratum.registry,
            Period.from_iso("2010-01-01", "2011-01-01"),
        )
        assert estimate.max_cost > 0
        assert estimate.perst_cost > 0

    def test_long_context_prefers_perst(self, stratum):
        stmt = parse_statement("SELECT get_author_name('a1') FROM item")
        long = estimate_costs(
            stmt, stratum.db, stratum.registry,
            Period.from_iso("2010-01-01", "2011-12-01"),
        )
        assert long.prefers_perst

    def test_cursor_penalty_raises_perst_cost(self, stratum):
        stratum.register_routine(CURSOR_FN)
        context = Period.from_iso("2010-01-01", "2011-01-01")
        plain = estimate_costs(
            parse_statement("SELECT title FROM item"),  # same tables, no cursor
            stratum.db, stratum.registry, context,
        )
        cursored = estimate_costs(
            parse_statement("SELECT scan_titles() FROM item"),
            stratum.db, stratum.registry, context,
        )
        assert cursored.perst_cost > plain.perst_cost


class TestCostStrategy:
    """SlicingStrategy.COST routes through the §VIII cost model."""

    def test_cost_strategy_executes(self, stratum):
        from repro.temporal import SlicingStrategy

        result = stratum.execute(
            "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01']"
            " SELECT get_author_name('a1') AS n FROM item",
            strategy=SlicingStrategy.COST,
        )
        assert stratum.last_strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST)
        assert len(result) > 0

    def test_cost_strategy_inapplicable_falls_back_to_max(self, stratum):
        from repro.temporal import SlicingStrategy

        stratum.register_routine("""
        CREATE FUNCTION selfref2 () RETURNS FLOAT READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE p FLOAT;
          SET p = (SELECT price FROM item WHERE id = 'i1');
          SET p = p + 1.0;
          RETURN p;
        END
        """)
        stratum.execute(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT selfref2() FROM item",
            strategy=SlicingStrategy.COST,
        )
        assert stratum.last_strategy is SlicingStrategy.MAX

    def test_cost_matches_estimate(self, stratum):
        from repro.sqlengine.parser import parse_statement
        from repro.temporal import SlicingStrategy

        sql = (
            "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01']"
            " SELECT get_author_name('a1') AS n FROM item"
        )
        stratum.execute(sql, strategy=SlicingStrategy.COST)
        picked = stratum.last_strategy
        estimate = estimate_costs(
            parse_statement(sql), stratum.db, stratum.registry,
            Period.from_iso("2010-01-01", "2010-12-01"),
        )
        expected = (
            SlicingStrategy.PERST if estimate.prefers_perst else SlicingStrategy.MAX
        )
        assert picked is expected


class TestSeqSetJoinShape:
    """Rule (s) claims a routine-free join only when every level is a
    hash join; a key-less level is priced as the cross product it is."""

    CONTEXT = Period.from_iso("2010-01-01", "2011-01-01")
    JOIN = "VALIDTIME SELECT i.title FROM item i, item_author ia WHERE "
    KEYED = JOIN + "i.id = ia.item_id"
    KEYLESS = JOIN + "i.id < ia.item_id"

    def test_keyed_join_is_seqset_by_rule_s(self, stratum):
        result = choice(stratum, self.KEYED, self.CONTEXT)
        assert result.strategy is SlicingStrategy.SEQSET
        assert result.rule == "s"

    def test_keyless_join_is_cost_arbitrated(self, stratum):
        from repro.temporal.heuristic import choose_by_cost

        stmt = parse_statement(self.KEYLESS)
        result = choice(stratum, self.KEYLESS, self.CONTEXT)
        assert result.rule == "cost"
        by_cost = choose_by_cost(stmt, stratum, stratum.registry, self.CONTEXT)
        strategy, estimate = by_cost.strategy, by_cost.estimate
        assert result.strategy is strategy
        assert result.reason == "key-less join: " + estimate.describe()
        costs = {
            SlicingStrategy.MAX: estimate.max_cost,
            SlicingStrategy.PERST: estimate.perst_cost,
            SlicingStrategy.SEQSET: estimate.seqset_cost,
        }
        assert costs[strategy] == min(costs.values())

    def test_seqset_cost_follows_the_plan_shape(self, stratum):
        from repro.temporal.seqset import compile_seqset

        db = stratum.db
        items = len(db.catalog.get_table("item"))
        links = len(db.catalog.get_table("item_author"))
        shapes = {}
        for sql in (self.KEYED, self.KEYLESS):
            stmt = parse_statement(sql)
            plan = compile_seqset(db, stratum.registry, stmt)
            shapes[sql] = plan.combinations(db)
            estimate = estimate_costs(
                stmt, db, stratum.registry, self.CONTEXT, seqset_plan=plan
            )
            assert estimate.seqset_cost is not None
        assert shapes[self.KEYED] == items + links
        assert shapes[self.KEYLESS] == items * links

    def test_slow_cross_product_does_not_poison_selection_unit(self, stratum):
        """The measured unit is seconds per combination of the plan's
        own shape, so the executed key-less join records a unit no
        larger than per-pair work."""
        db = stratum.db
        stratum.execute(
            self.KEYLESS.replace(
                "VALIDTIME", "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            ),
            strategy=SlicingStrategy.SEQSET,
        )
        timer = db.obs.timer("stratum.seqset.row_seconds")
        items = len(db.catalog.get_table("item"))
        links = len(db.catalog.get_table("item_author"))
        assert timer.count == items * links

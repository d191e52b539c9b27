"""The §VII-F heuristic against the metrics registry.

Two guarantees:

* **Differential** — after a seeded warm-up workload populates the
  per-slice and per-row timers, the measured-cost mode of
  :func:`estimate_costs` must reach the same MAX/PERST preference as
  the static calibration on q10 and q14 (the tie band and the
  static fallback exist precisely so measurement noise cannot flip a
  confident static decision).
* **Regression** — the rule (a/b/c/default) that fires for every
  benchmark query on DS1-SMALL is pinned, at a 90-day context and at
  the paper's one-week "short context" boundary.
"""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.taubench import ALL_QUERIES, get_query
from repro.temporal import SlicingStrategy
from repro.temporal.heuristic import choose_strategy, estimate_costs

CONTEXT_DAYS = 90


def sequenced_stmt(dataset, query, days=CONTEXT_DAYS):
    query.install(dataset)
    begin, end = dataset.context_bounds(days)
    return parse_statement(query.sequenced_sql(dataset, begin, end))


class TestMeasuredCostMode:
    @pytest.fixture(scope="class")
    def warmed(self, small_dataset):
        """Run q10/q14 under both strategies so both timers have samples."""
        stratum = small_dataset.stratum
        for name in ("q10", "q14"):
            query = get_query(name)
            query.install(small_dataset)
            begin, end = small_dataset.context_bounds(CONTEXT_DAYS)
            sql = query.sequenced_sql(small_dataset, begin, end)
            for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
                stratum.execute(sql, strategy=strategy)
        return small_dataset

    @pytest.mark.parametrize("name", ["q10", "q14"])
    def test_measured_agrees_with_static(self, warmed, name):
        stratum = warmed.stratum
        stmt = sequenced_stmt(warmed, get_query(name))
        context = warmed.context(CONTEXT_DAYS)
        static = estimate_costs(
            stmt, stratum.db, stratum.registry, context, mode="static"
        )
        measured = estimate_costs(
            stmt, stratum.db, stratum.registry, context, obs=stratum.db.obs
        )
        assert static.mode == "static"
        assert measured.prefers_perst == static.prefers_perst, (
            f"{name}: measured mode ({measured.mode},"
            f" max={measured.max_cost:.6f} perst={measured.perst_cost:.6f})"
            f" flipped the static decision"
            f" (max={static.max_cost:.6f} perst={static.perst_cost:.6f})"
        )

    def test_static_fallback_without_samples(self, small_dataset):
        """A fresh registry has no timings: measured mode must not engage."""
        from repro.obs.metrics import MetricsRegistry

        stratum = small_dataset.stratum
        stmt = sequenced_stmt(small_dataset, get_query("q2"))
        estimate = estimate_costs(
            stmt,
            stratum.db,
            stratum.registry,
            small_dataset.context(CONTEXT_DAYS),
            obs=MetricsRegistry(),
        )
        assert estimate.mode == "static"

    def test_measured_mode_engages_when_agreeing(self, small_dataset):
        """A decisive measurement that agrees with the static decision
        replaces the static numbers (EXPLAIN then shows seconds)."""
        from repro.obs.metrics import MetricsRegistry

        stratum = small_dataset.stratum
        stmt = sequenced_stmt(small_dataset, get_query("q2"))
        context = small_dataset.context(CONTEXT_DAYS)
        static = estimate_costs(
            stmt, stratum.db, stratum.registry, context, mode="static"
        )
        assert static.prefers_perst
        obs = MetricsRegistry()
        # per-slice work measured far more expensive than per-row work
        obs.timer("stratum.max.slice_seconds").record(1.0, 100)
        obs.timer("stratum.perst.row_seconds").record(0.001, 100)
        estimate = estimate_costs(
            stmt, stratum.db, stratum.registry, context, obs=obs
        )
        assert estimate.mode == "measured"
        assert estimate.prefers_perst

    def test_confident_static_resists_contradiction(self, small_dataset):
        """The timer means aggregate the whole workload, so a decisive
        measurement that *contradicts* a confident static comparison is
        treated as workload-mix artifact: the static decision stands."""
        from repro.obs.metrics import MetricsRegistry

        stratum = small_dataset.stratum
        stmt = sequenced_stmt(small_dataset, get_query("q2"))
        context = small_dataset.context(CONTEXT_DAYS)
        obs = MetricsRegistry()
        # measurement claims slices are nearly free: prefers MAX
        obs.timer("stratum.max.slice_seconds").record(0.001, 100)
        obs.timer("stratum.perst.row_seconds").record(1.0, 100)
        estimate = estimate_costs(
            stmt, stratum.db, stratum.registry, context, obs=obs
        )
        assert estimate.mode == "static"
        assert estimate.prefers_perst

    def test_unconfident_static_defers_to_measurement(self):
        """When the static comparison is itself a near-tie, a decisive
        measurement breaks it."""
        from repro.obs.metrics import MetricsRegistry
        from repro.sqlengine.values import Date
        from repro.temporal import TemporalStratum
        from repro.temporal.period import Period

        stratum = TemporalStratum()
        stratum.create_temporal_table(
            "CREATE TABLE flat (id INTEGER, begin_time DATE, end_time DATE)"
        )
        # 12 rows, one shared period: a single constant period, so the
        # static model lands inside its own confidence band
        for i in range(12):
            stratum.db.insert_rows(
                "flat",
                [[i, Date.from_iso("2010-01-01"), Date.from_iso("9999-12-31")]],
            )
        stmt = parse_statement(
            "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " SELECT id FROM flat"
        )
        context = Period(
            Date.from_iso("2010-02-01").ordinal, Date.from_iso("2010-03-01").ordinal
        )
        static = estimate_costs(
            stmt, stratum.db, stratum.registry, context, mode="static"
        )
        assert not static.prefers_perst  # but only just (0.17 vs 0.24)
        obs = MetricsRegistry()
        # measurement decisively disagrees: slices expensive, rows cheap
        obs.timer("stratum.max.slice_seconds").record(1.0, 100)
        obs.timer("stratum.perst.row_seconds").record(0.001, 100)
        estimate = estimate_costs(
            stmt, stratum.db, stratum.registry, context, obs=obs
        )
        assert estimate.mode == "measured"
        assert estimate.prefers_perst

    def test_cost_strategy_executes_either_way(self, warmed):
        """SlicingStrategy.COST end-to-end with a warm registry: the
        decision is recorded and the result matches a forced strategy."""
        stratum = warmed.stratum
        query = get_query("q10")
        begin, end = warmed.context_bounds(CONTEXT_DAYS)
        sql = query.sequenced_sql(warmed, begin, end)
        cost_result = stratum.execute(sql, strategy=SlicingStrategy.COST)
        assert stratum.last_estimate is not None
        chosen = stratum.last_strategy
        assert chosen in (SlicingStrategy.MAX, SlicingStrategy.PERST)
        forced = stratum.execute(sql, strategy=chosen)
        assert sorted(cost_result.coalesced()) == sorted(forced.coalesced())


class TestStaticParityOnExistingCases:
    """Acceptance bar: on the scenarios ``tests/temporal/test_heuristic.py``
    exercises (bookstore + routine / cursor-routine queries), the
    measured-cost mode must pick the same strategy as the static mode
    once real timings from the same workload are in the registry."""

    CASES = [
        ("SELECT get_author_name('a1') AS n FROM item", ("2010-01-01", "2011-01-01")),
        ("SELECT get_author_name('a1') AS n FROM item", ("2010-01-01", "2011-12-01")),
        ("SELECT title FROM item", ("2010-01-01", "2011-01-01")),
        ("SELECT scan_titles() AS n FROM item", ("2010-01-01", "2011-01-01")),
    ]

    @pytest.fixture(scope="class")
    def warmed_bookstore(self):
        from tests.conftest import GET_AUTHOR_NAME, make_bookstore
        from tests.temporal.test_heuristic import CURSOR_FN

        stratum = make_bookstore()
        stratum.register_routine(GET_AUTHOR_NAME)
        stratum.register_routine(CURSOR_FN)
        for query, (begin, end) in self.CASES:
            sql = f"VALIDTIME [DATE '{begin}', DATE '{end}'] " + query
            for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
                stratum.execute(sql, strategy=strategy)
        return stratum

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_decision(self, warmed_bookstore, case):
        from repro.temporal.period import Period

        stratum = warmed_bookstore
        query, (begin, end) = self.CASES[case]
        stmt = parse_statement(query)
        context = Period.from_iso(begin, end)
        static = estimate_costs(
            stmt, stratum.db, stratum.registry, context, mode="static"
        )
        measured = estimate_costs(
            stmt, stratum.db, stratum.registry, context, obs=stratum.db.obs
        )
        assert measured.prefers_perst == static.prefers_perst


# rule fired per query at a 90-day context: everything PERST-able
# defaults to PERST; q17b's nested FETCH makes PERST inapplicable (a)
EXPECTED_RULE_90D = {
    "q2": "default", "q2b": "default", "q3": "default", "q5": "default",
    "q6": "default", "q7": "default", "q7b": "default", "q8": "default",
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
        if query.name == "q17b":
            assert choice.rule == "a"
        elif query.name in CURSOR_QUERIES:
            assert choice.rule == "b"
            assert choice.strategy is SlicingStrategy.MAX
        else:
            assert choice.rule == "default"
            assert choice.strategy is SlicingStrategy.PERST


class TestIndexedRealityCalibration:
    """The per-slice timer that calibrates the measured mode is recorded
    around the interval-pruned MAX loop, so AUTO/COST unit costs reflect
    indexed (not linear-scan) per-slice work."""

    SCAN_QUERY = "SELECT COUNT(*) AS n FROM item"

    def sequenced(self, dataset, days=CONTEXT_DAYS):
        begin, end = dataset.context_bounds(days)
        return (
            f"VALIDTIME [DATE '{begin}', DATE '{end}'] " + self.SCAN_QUERY
        )

    def test_pruned_loop_feeds_the_slice_timer(self, small_dataset):
        stratum = small_dataset.stratum
        db = stratum.db
        timer = db.obs.timer("stratum.max.slice_seconds")
        samples_before = timer.count
        hits_before = db.obs.value("engine.interval_index_hits")
        stratum.execute(self.sequenced(small_dataset), strategy=SlicingStrategy.MAX)
        # the run recorded per-slice samples AND went through the index
        assert timer.count > samples_before
        assert db.obs.value("engine.interval_index_hits") > hits_before

    def test_measured_max_cost_uses_the_recorded_slice_mean(self, small_dataset):
        from repro.obs.metrics import MetricsRegistry
        from repro.temporal.constant_periods import compute_constant_periods

        stratum = small_dataset.stratum
        db = stratum.db
        stratum.execute(self.sequenced(small_dataset), strategy=SlicingStrategy.MAX)
        slice_mean = db.obs.mean("stratum.max.slice_seconds")
        assert slice_mean is not None and slice_mean > 0.0

        stmt = parse_statement(self.sequenced(small_dataset))
        context = small_dataset.context(CONTEXT_DAYS)
        static = estimate_costs(
            stmt, db, stratum.registry, context, mode="static"
        )
        periods = len(
            compute_constant_periods(db, ["item"], stratum.registry, context)
        )
        # a controlled registry carrying the *real* indexed slice mean and
        # a row mean chosen so the measurement is decisive and agrees with
        # the static preference (so arbitration lets measurement through)
        obs = MetricsRegistry()
        obs.timer("stratum.max.slice_seconds").record(slice_mean * 10, 10)
        row_mean = (
            slice_mean * 1e-6 if static.prefers_perst else slice_mean * 1e6
        )
        obs.timer("stratum.perst.row_seconds").record(row_mean * 10, 10)
        estimate = estimate_costs(
            stmt, db, stratum.registry, context, obs=obs
        )
        assert estimate.mode == "measured"
        assert estimate.max_cost == pytest.approx(periods * slice_mean)

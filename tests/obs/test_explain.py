"""EXPLAIN rendering: golden snapshots and the ANALYZE report.

Golden files live in ``tests/obs/golden/``; regenerate them after an
intentional output change with::

    TAUPSM_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_explain.py

Only plain ``EXPLAIN`` output is snapshotted — it is fully
deterministic (no timings).  ``EXPLAIN ANALYZE`` is asserted
structurally instead: the measured section must report the slice
count, per-slice wall time, routine invocations and cache traffic the
acceptance bar names.
"""

import os
import re
from pathlib import Path

import pytest

from repro.obs.explain import ExplainResult
from repro.taubench import get_query
from repro.temporal import SlicingStrategy

from tests.conftest import GET_AUTHOR_NAME, make_bookstore

GOLDEN = Path(__file__).parent / "golden"
UPDATE = os.environ.get("TAUPSM_UPDATE_GOLDEN") == "1"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / f"{name}.txt"
    if UPDATE:
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(text + "\n")
    assert path.exists(), (
        f"golden file missing: {path} — regenerate with TAUPSM_UPDATE_GOLDEN=1"
    )
    assert text + "\n" == path.read_text(), (
        f"EXPLAIN output drifted from {path.name};"
        " regenerate with TAUPSM_UPDATE_GOLDEN=1 if intentional"
    )


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    return s


RUNNING_EXAMPLE = (
    "EXPLAIN VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
    " SELECT get_author_name('a1') AS name FROM item"
)


class TestGoldenRunningExample:
    def test_max(self, stratum):
        result = stratum.execute(RUNNING_EXAMPLE, strategy=SlicingStrategy.MAX)
        check_golden("running_example_max", result.text())

    def test_perst(self, stratum):
        result = stratum.execute(RUNNING_EXAMPLE, strategy=SlicingStrategy.PERST)
        check_golden("running_example_perst", result.text())

    def test_auto_reports_heuristic_rule(self, stratum):
        result = stratum.execute(RUNNING_EXAMPLE)
        check_golden("running_example_auto", result.text())

    def test_current(self, stratum):
        result = stratum.execute("EXPLAIN SELECT get_author_name('a1') AS n")
        check_golden("running_example_current", result.text())

    def test_nonsequenced(self, stratum):
        result = stratum.execute(
            "EXPLAIN NONSEQUENCED VALIDTIME SELECT id, begin_time FROM item"
        )
        check_golden("running_example_nonsequenced", result.text())


class TestGoldenIntervalIndex:
    """Index-backed plans: a stab-shaped engine statement and the PERST
    algebraic fragment both render IntervalIndexScan leaves."""

    def test_engine_stab_plan(self, stratum):
        result = stratum.db.execute(
            "EXPLAIN SELECT i.id FROM item i"
            " WHERE i.begin_time <= DATE '2010-04-01'"
            " AND DATE '2010-04-01' < i.end_time"
        )
        assert any("IntervalIndexScan" in line for line in result.lines)
        check_golden("interval_stab_plan", result.text())

    def test_sequenced_algebraic_plan(self, stratum):
        result = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT i.id, i.price FROM item i",
            strategy=SlicingStrategy.PERST,
        )
        assert any("IntervalIndexScan" in line for line in result.lines)
        check_golden("interval_sequenced_perst_plan", result.text())


class TestGoldenJoinPipeline:
    """The join pipeline as EXPLAIN renders it: the join order when it
    differs from FROM order, one line per level with its access path and
    filter count, then the residual count."""

    def test_reordered_join_plan(self, stratum):
        result = stratum.db.execute(
            "EXPLAIN SELECT i.title FROM item i, item_author ia"
            " WHERE i.id = ia.item_id AND ia.author_id = 'a1'"
            " AND get_author_name(ia.author_id) = 'Ben'"
            " AND i.begin_time <= DATE '2010-04-01'"
            " AND DATE '2010-04-01' < i.end_time"
        )
        text = result.text()
        assert "join order: ia, i (emitted in FROM order)" in text
        assert "HashProbe item_author AS ia on ia.author_id = 'a1'" in text
        # the stab on i is decided by the probe: no filter left on i
        assert (
            "HashProbe item AS i on i.id = ia.item_id (begin_time/end_time):"
            " alive at DATE '2010-04-01'\n" in text
        )
        assert "residual: 1" in text
        check_golden("join_pipeline_plan", text)

    def test_analyze_reports_rows_per_level(self, stratum):
        """Rows in / out per level, for the statement *and* for the
        routine bodies it ran — where a τPSM query's join lives."""
        result = stratum.execute(
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT get_author_name(ia.author_id) AS name FROM item_author ia"
            " WHERE ia.item_id = 'i2'",
            strategy=SlicingStrategy.MAX,
        )
        text = result.text()
        assert "join pipelines (rows in / out per level):" in text
        levels = re.findall(
            r"HashProbe (\w+).* \[rows in: (\d+), out: (\d+)\]", text
        )
        # the outer statement probes item_author, the clone's body author
        assert {name for name, _, _ in levels} >= {"item_author", "author"}
        assert all(int(rows_in) >= int(rows_out) for _, rows_in, rows_out in levels)
        # the clone's stab is the probe's: author versions not alive at
        # the period begin never reach the level, nothing is rejected there
        assert re.search(
            r"HashProbe author on author_id = aid \(begin_time/end_time\):"
            r" alive at begin_time_in \[rows in: (\d+), out: \1\]", text
        )
        assert stratum.db.obs.value("engine.period_probe.rows_pruned") > 0
        assert stratum.db.obs.value("engine.join.reordered") > 0
        assert stratum.db.obs.value("engine.join.level_rejects") == 0

    def test_analyze_reports_rows_on_opaque_levels(self, stratum):
        """PERST's table function is a join level after the reordered
        scan pair; ANALYZE reports the rows it bound, as on a scan."""
        result = stratum.execute(
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT i.title FROM item i, item_author ia WHERE i.id = ia.item_id"
            " AND ia.author_id = 'a1' AND get_author_name(ia.author_id) = 'Ben'",
            strategy=SlicingStrategy.PERST,
        )
        text = result.text()
        assert "join order: ia, i, taupsm_f (emitted in FROM order)" in text
        bound = re.search(
            r"TableFunction ps_get_author_name AS taupsm_f \[rows in: (\d+), out: \1\]",
            text,
        )
        assert bound and int(bound.group(1)) > 0, text


class TestGoldenVectorized:
    """Pin how a scan evaluates its conjuncts: every engine scan filters
    row at a time (a typed filter per total conjunct, the residual for
    the rest), and nothing renders a vectorized path."""

    def test_vectorized_filter_plan(self, stratum):
        result = stratum.db.execute(
            "EXPLAIN SELECT i.id FROM item i WHERE i.price > 30.0"
        )
        assert any("row-at-a-time filter" in line for line in result.lines)
        assert not any("vectorized" in line for line in result.lines)
        check_golden("vectorized_filter_plan", result.text())

    def test_fallback_filter_plan(self, stratum):
        # arithmetic inside the comparison makes the conjunct partial:
        # the residual evaluates it
        result = stratum.db.execute(
            "EXPLAIN SELECT i.id FROM item i WHERE i.price + 1.0 > 30.0"
        )
        assert any("row-at-a-time filter" in line for line in result.lines)
        assert not any("vectorized" in line for line in result.lines)
        check_golden("fallback_filter_plan", result.text())

    def test_mixed_conjuncts_fall_back(self, stratum):
        # one total conjunct (a typed filter) + one partial (the residual)
        result = stratum.db.execute(
            "EXPLAIN SELECT i.id FROM item i"
            " WHERE i.price > 30.0 AND i.price + 1.0 > 30.0"
        )
        assert any("row-at-a-time filter" in line for line in result.lines)
        check_golden("mixed_filter_plan", result.text())


class TestGoldenBenchmarkQueries:
    """Three τPSM queries on DS1-SMALL (deterministic generator).

    A private dataset, not the session-shared one: the engine-plan
    section shows a cached plan when execution has already bound one,
    so the snapshot is only deterministic from a cold cache — or, for
    the warm PERST q2, from a dataset of its own after exactly one run.
    """

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.taubench import build_dataset

        return build_dataset("DS1", "SMALL")

    @pytest.mark.parametrize("name", ["q2", "q10", "q14"])
    def test_query(self, dataset, name):
        query = get_query(name)
        query.install(dataset)
        begin, end = dataset.context_bounds(90)
        sql = query.sequenced_sql(dataset, begin, end)
        result = dataset.stratum.execute("EXPLAIN " + sql)
        check_golden(f"taubench_{name}", result.text())

    def test_warm_perst_q2(self):
        """After one run the engine plan is bound: PERST's table function
        follows a scan prefix that starts from the probed author's links."""
        from repro.taubench import build_dataset

        dataset = build_dataset("DS1", "SMALL")
        query = get_query("q2")
        query.install(dataset)
        begin, end = dataset.context_bounds(90)
        sql = query.sequenced_sql(dataset, begin, end)
        dataset.stratum.execute(sql, strategy=SlicingStrategy.PERST)
        text = dataset.stratum.execute(
            "EXPLAIN " + sql, strategy=SlicingStrategy.PERST
        ).text()
        assert "join order: ia, i, taupsm_f (emitted in FROM order)" in text
        check_golden("taubench_q2_perst_warm", text)


class TestExplainSemantics:
    def test_explain_is_side_effect_free(self, stratum):
        obs = stratum.db.obs
        statements_before = obs.value("engine.statements")
        rows_before = obs.sum_prefix("engine.rows_written.")
        result = stratum.execute(RUNNING_EXAMPLE)
        assert isinstance(result, ExplainResult)
        assert result.result is None  # nothing executed
        assert obs.sum_prefix("engine.rows_written.") == rows_before
        # only the EXPLAIN statement itself was counted, not the target
        assert obs.value("engine.statements") <= statements_before + 1

    @pytest.mark.parametrize("strategy", [SlicingStrategy.AUTO])
    def test_only_a_run_moves_the_heuristic_counters(self, stratum, strategy):
        """A decision counts when it is acted on: plain EXPLAIN moves no
        ``heuristic.choice.*`` counter, EXPLAIN ANALYZE exactly one, by
        one (EXPLAIN's own second derivation used to count too: 0 → 1
        → 3)."""
        obs = stratum.db.obs

        def choices():
            return {
                name: obs.value(f"heuristic.choice.{name}")
                for name in ("max", "perst")
            }

        before = choices()
        stratum.execute(RUNNING_EXAMPLE, strategy=strategy)
        assert choices() == before
        stratum.execute(
            RUNNING_EXAMPLE.replace("EXPLAIN", "EXPLAIN ANALYZE"), strategy=strategy
        )
        moved = {
            name: count - before[name]
            for name, count in choices().items() if count != before[name]
        }
        assert moved == {stratum.last_strategy.value: 1}

    def test_explain_duck_types_a_result_set(self, stratum):
        result = stratum.execute(RUNNING_EXAMPLE)
        assert result.columns == ["plan"]
        assert [row[0] for row in result.rows] == result.lines
        assert len(result) == len(result.lines)

    def test_requested_strategy_line(self, stratum):
        result = stratum.execute(RUNNING_EXAMPLE, strategy=SlicingStrategy.MAX)
        assert "strategy: max (requested)" in result.lines

    def test_sequenced_modification(self, stratum):
        result = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-02-01', DATE '2010-03-01']"
            " UPDATE item SET price = 1.0 WHERE id = 'i1'"
        )
        assert any("sequenced modification" in l for l in result.lines)
        # and nothing was modified
        prices = stratum.db.execute("SELECT price FROM item WHERE id = 'i1'")
        assert all(row[0] != 1.0 for row in prices.rows)

    def test_current_update_renders_the_stratum_steps(self, stratum):
        """A current UPDATE has no single-statement form; EXPLAIN used to
        die on a raw NotImplementedError from ``transform_current``."""
        sql = "UPDATE item SET price = 1.0 WHERE id = 'i1'"
        text = stratum.execute("EXPLAIN " + sql).text()
        assert "plan: executed by the stratum" in text
        # the match statement and the plan the engine bound for it
        assert "item.begin_time <= taupsm_period.taupsm_lo" in text
        # the two period conjuncts are the probe's stab, not filters
        assert (
            "Update item\n      HashProbe item on id = 'i1' (begin_time/end_time):"
            " alive at taupsm_period.taupsm_lo\n" in text
        )
        assert "close: end_time := CURRENT_DATE" in text
        assert "re-insert: the match with price = 1.0" in text
        prices = stratum.db.execute("SELECT price FROM item WHERE id = 'i1'")
        assert [row[0] for row in prices.rows] == [25.0]  # nothing ran
        analyzed = stratum.execute("EXPLAIN ANALYZE " + sql)
        assert analyzed.result == 1
        assert "rows written: 1" in analyzed.text()
        # the level's measured rows: i1 has one version, it matched
        assert (
            "HashProbe item on id = 'i1' (begin_time/end_time):"
            " alive at taupsm_period.taupsm_lo [rows in: 1, out: 1]" in analyzed.text()
        )

    def test_current_delete_renders_the_stratum_steps(self, stratum):
        text = stratum.execute("EXPLAIN DELETE FROM item WHERE id = 'i2'").text()
        assert "Delete item\n      HashProbe item on id = 'i2'" in text
        assert "close: end_time" in text
        assert "re-insert" not in text
        assert len(stratum.db.execute("SELECT 1 FROM item").rows) == 2

    def test_sequenced_and_transaction_time_dml_render_the_match_plan(self, stratum):
        text = stratum.execute(
            "EXPLAIN VALIDTIME [DATE '2010-04-01', DATE '2010-07-01']"
            " DELETE FROM item WHERE price > 50"
        ).text()
        assert "item.begin_time < taupsm_period.taupsm_hi" in text
        assert "IntervalIndexScan item (begin_time/end_time)" in text
        stratum.db.execute("CREATE TABLE account (id CHAR(8), balance FLOAT)")
        stratum.execute("ALTER TABLE account ADD TRANSACTIONTIME")
        text = stratum.execute(
            "EXPLAIN UPDATE account SET balance = 0 WHERE id = 'a1'"
        ).text()
        assert "HashProbe account on id = 'a1'" in text
        assert "close: tt_stop := the clock" in text
        text = stratum.execute("EXPLAIN DELETE FROM account").text()
        assert "HashProbe account on account.tt_stop = DATE '9999-12-31'" in text

    def test_conventional_statement_explains_engine_plan(self, stratum):
        result = stratum.db.execute("EXPLAIN SELECT 1 AS one")
        assert isinstance(result, ExplainResult)
        assert any(line.startswith("engine plan:") for line in result.lines)


class TestExplainAnalyze:
    """The acceptance bar: EXPLAIN ANALYZE on a sequenced query reports
    slice count, per-slice wall time, routine invocations and
    plan/transform cache hits."""

    def test_reports_all_measured_facts(self, stratum):
        sql = (
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT get_author_name('a1') AS name FROM item"
        )
        # the first pass prepares the statement (from the candidates its
        # rendering built); the statement cache serves the second
        first = stratum.execute(sql, strategy=SlicingStrategy.MAX).text()
        assert re.search(r"transform cache hits: \d+", first)
        assert "statement cache: miss" in first
        result = stratum.execute(sql, strategy=SlicingStrategy.MAX)
        text = result.text()
        assert "statement cache: hit" in text
        slices = re.search(r"slices: (\d+) \(mean ([\d.]+)ms/slice\)", text)
        assert slices, text
        assert int(slices.group(1)) > 0
        calls = re.search(r"routine invocations: (\d+)", text)
        assert calls and int(calls.group(1)) > 0
        assert re.search(r"wall time: [\d.]+ms", text)
        assert re.search(r"plan cache hits: \d+", text)
        assert re.search(r"rows scanned: \d+", text)

    def test_a_grouped_select_prints_the_groups_it_formed(self, stratum):
        """``engine.group.groups`` moves once per execution, by the groups
        the execution formed (fewer than the rows it folded); the summary
        prints the run's delta."""
        obs = stratum.db.obs
        sql = (
            "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT ia.author_id, COUNT(*) AS n FROM item_author ia"
            " GROUP BY ia.author_id"
        )
        before = obs.value("engine.group.groups")
        rows = stratum.execute(sql, strategy=SlicingStrategy.MAX).rows
        formed = obs.value("engine.group.groups") - before
        assert 0 < formed < sum(row[1] for row in rows)
        text = stratum.execute(
            "EXPLAIN ANALYZE " + sql, strategy=SlicingStrategy.MAX
        ).text()
        assert f"  groups formed: {formed}\n" in text, text

    def test_routine_lines_carry_inclusive_time_taken_only_under_analyze(
        self, stratum
    ):
        sql = (
            "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT get_author_name('a1') AS name FROM item"
        )
        stratum.execute(sql, strategy=SlicingStrategy.MAX)
        assert stratum.db.obs.sum_prefix("engine.routine.ns.") == 0  # nobody asked
        text = stratum.execute(
            "EXPLAIN ANALYZE " + sql, strategy=SlicingStrategy.MAX
        ).text()
        line = re.search(
            r"max_get_author_name: (\d+) run, (\d+) reused, ([\d.]+)ms inclusive",
            text,
        )
        assert line, text
        wall = float(re.search(r"wall time: ([\d.]+)ms", text).group(1))
        assert int(line.group(1)) > 0 and 0.0 < float(line.group(3)) <= wall

    def test_executes_and_keeps_the_result(self, stratum):
        result = stratum.execute(
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT get_author_name('a1') AS name FROM item",
            strategy=SlicingStrategy.MAX,
        )
        assert result.result is not None
        names = {values[0] for values, _ in result.result.coalesced()}
        assert names == {"Ben", "Benjamin"}

    def test_trace_tree_is_rendered(self, stratum):
        sql = (
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT i.id FROM item i"
        )
        text = stratum.execute(sql, strategy=SlicingStrategy.PERST).text()
        assert "trace:" in text
        assert "stratum.transform" in text
        assert "stratum.perst.execute" in text
        # again: the statement cache serves parse and prepare
        text = stratum.execute(sql, strategy=SlicingStrategy.PERST).text()
        assert re.search(r"stratum\.prepare \([\d.]+ms\) cached=True", text), text
        assert "stratum.transform" not in text
        assert "stratum.perst.execute" in text

    def test_tracer_state_restored(self, stratum):
        assert stratum.db.tracer.enabled is False
        stratum.execute(
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT i.id FROM item i"
        )
        assert stratum.db.tracer.enabled is False

    def test_analyze_slice_count_matches_registry(self, stratum):
        obs = stratum.db.obs
        before = obs.value("stratum.slices")
        result = stratum.execute(
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT i.id FROM item i",
            strategy=SlicingStrategy.MAX,
        )
        delta = obs.value("stratum.slices") - before
        reported = re.search(r"slices: (\d+) ", result.text())
        assert reported and int(reported.group(1)) == delta

    def test_every_printed_count_is_the_registry_delta(self, stratum, monkeypatch):
        """The counts the report prints — invocations run and reused, per
        routine and in total, embedded plan runs, statements, plans,
        transforms, rows scanned and written, slices — equal what the
        execution it measured moved in ``db.obs``; a count it leaves out
        did not move."""
        from repro.obs import explain

        obs = stratum.db.obs
        seen = {}
        analyzed = explain._run_analyzed

        def spied(db, thunk):
            def measured():
                seen["before"] = obs.flat()
                try:
                    return thunk()
                finally:
                    seen["after"] = obs.flat()

            return analyzed(db, measured)

        monkeypatch.setattr(explain, "_run_analyzed", spied)

        def moved(name):  # a counter, or a family named by its prefix
            before, after = seen["before"], seen["after"]
            names = [key for key in after if key.startswith(name)] if name.endswith(".") else [name]
            return sum(after.get(key, 0) - before.get(key, 0) for key in names)

        def printed(pattern, text):
            found = re.search(pattern, text)
            return tuple(map(int, found.groups())) if found else None

        sql = (
            "EXPLAIN ANALYZE VALIDTIME [DATE '2010-01-01', DATE '2011-01-01']"
            " SELECT get_author_name(ia.author_id) AS name"
            " FROM item i, item_author ia WHERE i.id = ia.item_id"
        )
        scanned = written = 0
        for _ in range(2):  # a statement-cache miss, then a hit
            text = stratum.execute(sql, strategy=SlicingStrategy.MAX).text()
            routine = "max_get_author_name"
            run = moved("engine.routine.calls." + routine)
            reused = moved("engine.routine.reuses." + routine)
            assert run > 0, text
            assert printed(
                r"routine invocations: (\d+) \((\d+) run, (\d+) reused\)", text
            ) == (
                run + reused, moved("engine.routine.calls."),
                moved("engine.routine.reuses."),
            )
            assert printed(rf"{routine}: (\d+) run, (\d+) reused", text) == (run, reused)
            assert printed(r"embedded plan runs: (\d+) ", text) == (
                moved("engine.routine.plan_runs." + routine),
            )
            assert printed(r"statements executed: (\d+)", text) == (
                moved("engine.statements"),
            )
            assert printed(r"slices: (\d+) ", text) == (moved("stratum.slices"),)
            for label, name in (
                ("plans compiled", "engine.plans_compiled"),
                ("plan cache hits", "engine.plan_cache.hits"),
                ("transforms", "stratum.transforms"),
                ("transform cache hits", "stratum.transform_cache.hits"),
                ("rows scanned", "engine.rows_scanned"),
                ("rows written", "engine.rows_written."),
            ):
                delta = moved(name)
                assert printed(rf"\n  {label}: (\d+)", text) == (
                    (delta,) if delta else None
                ), label
            scanned += moved("engine.rows_scanned")
            written += moved("engine.rows_written.")
        assert scanned and written

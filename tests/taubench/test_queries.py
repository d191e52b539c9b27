"""τPSM query-suite tests: every query installs, parses and runs."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.taubench import ALL_QUERIES, get_query
from repro.taubench.queries import QuerySpec


class TestSuiteShape:
    def test_sixteen_queries(self):
        assert len(ALL_QUERIES) == 16

    def test_names_match_paper(self):
        names = [q.name for q in ALL_QUERIES]
        assert names == [
            "q2", "q2b", "q3", "q5", "q6", "q7", "q7b", "q8", "q9", "q10",
            "q11", "q14", "q17", "q17b", "q19", "q20",
        ]

    def test_only_q8_and_q17b_perst_inapplicable(self):
        flagged = [q.name for q in ALL_QUERIES if not q.perst_applicable]
        assert flagged == ["q8", "q17b"]

    def test_cursor_queries_flagged(self):
        cursored = {q.name for q in ALL_QUERIES if q.uses_cursor}
        assert cursored == {"q7", "q7b", "q14", "q17", "q17b"}

    def test_get_query(self):
        assert get_query("Q2").name == "q2"
        with pytest.raises(KeyError):
            get_query("q99")


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
class TestEachQuery:
    def test_routines_parse(self, query: QuerySpec):
        for routine in query.routines:
            parse_statement(routine)

    def test_install_idempotent(self, query: QuerySpec, small_dataset):
        query.install(small_dataset)
        query.install(small_dataset)  # re-install must not raise

    def test_conventional_sql_parses(self, query: QuerySpec, small_dataset):
        parse_statement(query.conventional_sql(small_dataset))

    def test_sequenced_sql_has_modifier(self, query: QuerySpec, small_dataset):
        stmt = parse_statement(
            query.sequenced_sql(small_dataset, "2010-02-01", "2010-03-01")
        )
        assert stmt.modifier is not None

    def test_current_execution_non_empty(self, query: QuerySpec, small_dataset):
        """The paper adjusted q2 so results are never empty; we require
        the same of every query under current semantics."""
        query.install(small_dataset)
        result = small_dataset.stratum.execute(
            query.conventional_sql(small_dataset)
        )
        if isinstance(result, list):  # procedure result sets
            assert sum(len(r.rows) for r in result) > 0
        else:
            assert len(result.rows) > 0


class TestFeatureConstructs:
    """Each query must actually contain the construct it is named for."""

    def _routine_text(self, name):
        return " ".join(get_query(name).routines)

    def test_q2_has_set_select_row(self):
        assert "SET fname = (SELECT" in self._routine_text("q2")

    def test_q2b_has_multiple_sets(self):
        text = self._routine_text("q2b")
        assert text.count("SET ") >= 2

    def test_q3_returns_select_row(self):
        assert "RETURN (SELECT" in self._routine_text("q3")

    def test_q6_has_case(self):
        assert "CASE" in self._routine_text("q6")

    def test_q7_has_while(self):
        assert "WHILE" in self._routine_text("q7")

    def test_q7b_has_repeat(self):
        assert "REPEAT" in self._routine_text("q7b")

    def test_q8_has_labeled_for(self):
        assert "f1: FOR" in self._routine_text("q8")

    def test_q9_has_nested_call(self):
        assert "CALL publisher_items" in self._routine_text("q9")

    def test_q10_has_if(self):
        assert "IF" in self._routine_text("q10")

    def test_q11_creates_temp_table(self):
        assert "CREATE TEMPORARY TABLE" in self._routine_text("q11")

    def test_q14_has_cursor_verbs(self):
        text = self._routine_text("q14")
        for verb in ("CURSOR", "OPEN", "FETCH", "CLOSE"):
            assert verb in text

    def test_q17_has_leave(self):
        assert "LEAVE" in self._routine_text("q17")

    def test_q17b_fetch_after_calls(self):
        text = self._routine_text("q17b")
        loop = text[text.index("WHILE"):]
        assert loop.index("has_canadian_author") < loop.rindex("FETCH")

    def test_q19_called_in_from(self, small_dataset):
        sql = get_query("q19").conventional_sql(small_dataset)
        assert "FROM TABLE(authors_of" in sql

    def test_q20_has_set(self):
        assert "SET d = p * 0.9" in self._routine_text("q20")

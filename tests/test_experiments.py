"""Experiment-module tests (fast configurations via the env knobs)."""

import pytest

from benchmarks import paper


@pytest.fixture
def tiny_env(monkeypatch):
    monkeypatch.setenv("TAUPSM_QUERIES", "q5,q19")
    monkeypatch.setenv("TAUPSM_MAX_CONTEXT", "7")


class TestSelection:
    def test_query_selection_env(self, tiny_env):
        names = [q.name for q in paper._selected_queries()]
        assert names == ["q5", "q19"]

    def test_context_cap_env(self, tiny_env):
        assert paper._selected_contexts() == [1, 7]

    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv("TAUPSM_QUERIES", raising=False)
        monkeypatch.delenv("TAUPSM_MAX_CONTEXT", raising=False)
        assert len(paper._selected_queries()) == 16
        assert paper._selected_contexts() == [1, 7, 30, 365]


class TestFigureTwelve:
    def test_small_sweep(self, tiny_env):
        result = paper.fig12_context_small()
        assert "Figure 12" in result.report
        assert "routine invocations" in result.report
        # 2 queries x 2 contexts x 2 strategies
        assert len(result.cells) == 8
        assert all(c.ok for c in result.cells)

    def test_classes_reported(self, tiny_env):
        result = paper.fig12_context_small()
        assert "query classes" in result.report
        assert "q5:" in result.report


class TestFigureFifteen:
    def test_dataset_keys_rewritten(self, tiny_env):
        result = paper.fig15_data_characteristics(context_days=7)
        datasets = {c.dataset for c in result.cells}
        assert datasets == {"DS1", "DS2", "DS3"}


class TestLineCounts:
    def test_totals_ordered(self):
        result = paper.line_counts()
        total_line = next(
            line for line in result.report.splitlines() if line.startswith("total")
        )
        _, original, max_tokens, perst_tokens = total_line.split()
        assert int(original) < int(max_tokens) < int(perst_tokens)
        # substantial expansion, like the paper's ~3.2x
        assert int(max_tokens) / int(original) > 1.5

    def test_q17b_has_no_perst_tokens(self):
        result = paper.line_counts()
        q17b_line = next(
            line for line in result.report.splitlines() if line.startswith("q17b")
        )
        assert q17b_line.split()[-1] == "0"


class TestHeuristicEvaluation:
    def test_evaluation_over_measured_cells(self, tiny_env):
        cells = paper.fig12_context_small().cells
        result = paper.heuristic_evaluation(cells)
        assert "heuristic correct" in result.report
        assert "rule firings" in result.report

    def test_empty_pool(self):
        result = paper.heuristic_evaluation([])
        assert "no cells" in result.report or "0" in result.report

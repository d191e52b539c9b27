"""Paper-harness cell and reporting tests (fast cells only)."""

import pytest

from benchmarks.paper import (
    CellResult,
    classify_queries,
    classify_query,
    format_series_table,
    run_cell,
    run_grid,
)
from repro.sqlengine.values import Date
from repro.taubench import get_query
from repro.temporal.stratum import SlicingStrategy


class TestRunCell:
    def test_cell_records_metrics(self, small_dataset):
        query = get_query("q5")
        cell = run_cell(small_dataset, query, SlicingStrategy.MAX, 7)
        assert cell.ok
        assert cell.seconds > 0
        assert cell.rows > 0
        assert cell.routine_calls > 0
        assert cell.query == "q5"
        assert cell.dataset == "DS1.SMALL"

    def test_perst_inapplicable_cell(self, small_dataset):
        query = get_query("q17b")
        cell = run_cell(small_dataset, query, SlicingStrategy.PERST, 7)
        assert cell.inapplicable
        assert not cell.ok

    def test_context_bounds_formatting(self, small_dataset):
        begin, end = small_dataset.context_bounds(7)
        assert len(begin) == 10 and len(end) == 10
        assert begin < end

    @pytest.mark.parametrize("days", [1, 7, 30, 365])
    def test_context_bounds_are_the_context(self, small_dataset, days):
        period = small_dataset.context(days)
        assert small_dataset.context_bounds(days) == (
            Date(period.begin).to_iso(), Date(period.end).to_iso()
        )

    def test_run_grid_cross_product(self, small_dataset):
        cells = run_grid(
            small_dataset,
            [get_query("q5")],
            [SlicingStrategy.MAX, SlicingStrategy.PERST],
            [1, 7],
            warm=False,
        )
        assert len(cells) == 4


def make_cell(query, strategy, days, seconds, dataset="D"):
    return CellResult(
        query=query, strategy=strategy, dataset=dataset,
        context_days=days, seconds=seconds, rows=1,
    )


class TestClassification:
    CONTEXTS = [1, 30]

    def test_class_a(self):
        cells = [
            make_cell("q", "max", 1, 0.5), make_cell("q", "perst", 1, 0.1),
            make_cell("q", "max", 30, 2.0), make_cell("q", "perst", 30, 0.1),
        ]
        assert classify_query("q", "D", self.CONTEXTS, cells) == "A"

    def test_class_b_crossover(self):
        cells = [
            make_cell("q", "max", 1, 0.1), make_cell("q", "perst", 1, 0.5),
            make_cell("q", "max", 30, 2.0), make_cell("q", "perst", 30, 0.5),
        ]
        assert classify_query("q", "D", self.CONTEXTS, cells) == "B"

    def test_class_c(self):
        cells = [
            make_cell("q", "max", 1, 0.1), make_cell("q", "perst", 1, 0.5),
            make_cell("q", "max", 30, 0.1), make_cell("q", "perst", 30, 5.0),
        ]
        assert classify_query("q", "D", self.CONTEXTS, cells) == "C"

    def test_class_d_approaches(self):
        cells = [
            make_cell("q", "max", 1, 0.1), make_cell("q", "perst", 1, 0.5),
            make_cell("q", "max", 30, 0.4), make_cell("q", "perst", 30, 0.45),
        ]
        assert classify_query("q", "D", self.CONTEXTS, cells) == "D"

    def test_inapplicable_gives_none(self):
        cells = [
            make_cell("q", "max", 1, 0.1),
            CellResult(query="q", strategy="perst", dataset="D",
                       context_days=1, inapplicable=True),
            make_cell("q", "max", 30, 0.4),
            CellResult(query="q", strategy="perst", dataset="D",
                       context_days=30, inapplicable=True),
        ]
        assert classify_query("q", "D", self.CONTEXTS, cells) is None

    def test_classify_many(self):
        cells = [
            make_cell("a", "max", 1, 1.0), make_cell("a", "perst", 1, 0.1),
            make_cell("a", "max", 30, 1.0), make_cell("a", "perst", 30, 0.1),
        ]
        classes = classify_queries(["a", "missing"], "D", self.CONTEXTS, cells)
        assert classes["a"] == "A"
        assert classes["missing"] is None


class TestFormatting:
    def test_table_contains_all_cells(self):
        cells = [
            make_cell("q1", "max", 1, 0.5), make_cell("q1", "perst", 1, 0.25),
            make_cell("q1", "max", 30, 1.5), make_cell("q1", "perst", 30, 0.25),
        ]
        table = format_series_table(cells, title="demo")
        assert "demo" in table
        assert "0.500/0.250" in table
        assert "1.500/0.250" in table

    def test_inapplicable_rendered_na(self):
        cells = [
            make_cell("q1", "max", 1, 0.5),
            CellResult(query="q1", strategy="perst", dataset="D",
                       context_days=1, inapplicable=True),
        ]
        assert "0.500/n/a" in format_series_table(cells)

    def test_metric_selection(self):
        cells = [make_cell("q1", "max", 1, 0.5)]
        cells[0].routine_calls = 42
        table = format_series_table(cells, metric="routine_calls")
        assert "42/?" in table

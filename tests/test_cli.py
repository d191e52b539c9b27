"""Shell tests: the REPL engine driven line by line."""

import pytest

from repro.cli import Shell, format_table, format_value
from repro.sqlengine.values import Date, Null


@pytest.fixture
def shell():
    return Shell()


def run(shell, *lines):
    output = None
    for line in lines:
        output = shell.feed(line)
    return output


class TestStatements:
    def test_ddl_and_query(self, shell):
        run(shell, "CREATE TABLE t (a INTEGER);")
        run(shell, "INSERT INTO t VALUES (1), (2);")
        output = run(shell, "SELECT a FROM t ORDER BY a;")
        assert "1" in output and "2" in output
        assert "(2 rows)" in output

    def test_multiline_statement(self, shell):
        run(shell, "CREATE TABLE t (a INTEGER);")
        assert shell.feed("SELECT a") is None  # buffered
        assert shell.prompt != "taupsm> "
        output = shell.feed("FROM t;")
        assert "(0 rows)" in output

    def test_error_reported_not_raised(self, shell):
        output = run(shell, "SELECT * FROM nope;")
        assert output.startswith("error:")

    def test_sequenced_query_shows_strategy(self, shell):
        run(shell, "CREATE TABLE t (a INTEGER);")
        run(shell, "ALTER TABLE t ADD VALIDTIME;")
        run(shell, ".now 2010-06-01")
        run(shell, "INSERT INTO t (a) VALUES (7);")
        output = run(
            shell,
            "VALIDTIME [DATE '2010-06-01', DATE '2010-06-10'] SELECT a FROM t;",
        )
        assert "(strategy:" in output
        assert "2010-06-01" in output

    def test_blank_line_ignored(self, shell):
        assert shell.feed("") is None


class TestMetaCommands:
    def test_help(self, shell):
        assert ".tables" in shell.meta(".help")

    def test_quit(self, shell):
        shell.meta(".quit")
        assert shell.done

    def test_tables_lists_dimensions(self, shell):
        run(shell, "CREATE TABLE t (a INTEGER);")
        run(shell, "ALTER TABLE t ADD VALIDTIME;")
        run(shell, "CREATE TABLE u (b INTEGER);")
        run(shell, "ALTER TABLE u ADD TRANSACTIONTIME;")
        output = shell.meta(".tables")
        assert "t (0 rows) [valid time]" in output
        assert "u (0 rows) [transaction time]" in output

    def test_routines(self, shell):
        run(
            shell,
            "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL RETURN 1;",
        )
        assert "function f" in shell.meta(".routines")

    def test_now_get_and_set(self, shell):
        assert "CURRENT_DATE" in shell.meta(".now")
        assert "2010-04-01" in shell.meta(".now 2010-04-01")

    def test_clock(self, shell):
        assert "tracking CURRENT_DATE" in shell.meta(".clock")
        assert "2010-04-01" in shell.meta(".clock 2010-04-01")
        assert "tracking CURRENT_DATE" in shell.meta(".clock none")

    def test_strategy(self, shell):
        assert "perst" in shell.meta(".strategy perst")
        assert "must be one of" in shell.meta(".strategy bogus")
        for alias in ("cost", "seqset"):  # other names of auto and max
            assert shell.meta(f".strategy {alias}") == (
                "strategy must be one of: max, perst, auto"
            )
            assert run(shell, f"SET STRATEGY {alias};") == (
                f"error: unknown strategy '{alias}'; expected one of:"
                " max, perst, auto"
            )

    def test_transform(self, shell):
        run(shell, "CREATE TABLE t (a INTEGER);")
        run(shell, "ALTER TABLE t ADD VALIDTIME;")
        output = shell.meta(".transform SELECT a FROM t")
        assert "CURRENT_DATE" in output

    def test_stats(self, shell):
        """The engine's counters are registry counters: ``.metrics``
        lists them, and there is no second listing."""
        run(shell, "SELECT 1;")
        assert "engine.statements: " in shell.meta(".metrics")
        assert "unknown meta-command" in shell.meta(".stats")

    def test_unknown(self, shell):
        assert "unknown meta-command" in shell.meta(".wat")

    def test_load_rejects_bad_name(self, shell):
        assert "error" in shell.meta(".load DS9 SMALL")


class TestFormatting:
    def test_format_value(self):
        assert format_value(Null) == "NULL"
        assert format_value(Date.from_iso("2010-01-02")) == "2010-01-02"
        assert format_value(1.5) == "1.5"

    def test_format_table_alignment(self):
        text = format_table(["name", "n"], [["ab", 1], ["c", 22]])
        lines = text.split("\n")
        assert lines[0].startswith("name")
        assert "(2 rows)" in lines[-1]

    def test_singular_row_count(self):
        assert "(1 row)" in format_table(["a"], [[1]])


class TestLoadDataset:
    def test_load_replaces_stratum(self, shell):
        output = shell.meta(".load DS1 SMALL")
        assert "loaded DS1.SMALL" in output
        tables = shell.meta(".tables")
        assert "item" in tables and "[valid time]" in tables

    def test_loaded_dataset_queryable(self, shell):
        shell.meta(".load DS1 SMALL")
        output = run(shell, "SELECT COUNT(*) FROM publisher;")
        assert "(1 row)" in output


class TestObservabilityCommands:
    def _setup(self, shell):
        run(shell, "CREATE TABLE t (a INTEGER);")
        run(shell, "ALTER TABLE t ADD VALIDTIME;")
        run(shell, ".now 2010-06-01")
        run(shell, "INSERT INTO t (a) VALUES (7);")

    def test_metrics_lists_counters(self, shell):
        self._setup(shell)
        output = shell.meta(".metrics")
        assert "engine.rows_written.insert" in output

    def test_trace_toggle_and_render(self, shell):
        self._setup(shell)
        assert shell.meta(".trace on") == "tracing on"
        run(
            shell,
            "VALIDTIME [DATE '2010-06-01', DATE '2010-06-10'] SELECT a FROM t;",
        )
        output = shell.meta(".trace")
        assert "statement" in output and "stratum.transform" in output
        assert shell.meta(".trace off") == "tracing off"

    def test_trace_without_capture(self, shell):
        assert "no trace captured" in shell.meta(".trace")

    def test_explain_statement_in_shell(self, shell):
        self._setup(shell)
        output = run(
            shell,
            "EXPLAIN VALIDTIME [DATE '2010-06-01', DATE '2010-06-10']"
            " SELECT a FROM t;",
        )
        assert "semantics: sequenced valid time" in output
        assert "strategy:" in output


class TestSubcommands:
    SQL = (
        "VALIDTIME [DATE '2009-01-01', DATE '2009-03-01']"
        " SELECT i.id FROM item AS i"
    )

    def test_explain_subcommand(self, capsys):
        from repro.cli import main

        code = main(["explain", "--load", "DS1", "SMALL", self.SQL])
        assert code == 0
        out = capsys.readouterr().out
        assert "semantics: sequenced valid time" in out
        assert "transformed SQL:" in out

    def test_explain_analyze_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            ["explain", "--analyze", "--strategy", "max",
             "--load", "DS1", "SMALL", self.SQL]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy: max (requested)" in out
        assert "measured:" in out and "wall time:" in out

    def test_trace_subcommand(self, capsys):
        from repro.cli import main

        code = main(["trace", "--load", "DS1", "SMALL", self.SQL])
        assert code == 0
        out = capsys.readouterr().out
        assert "statement" in out
        assert "stratum" in out

    def test_strategy_cost_is_refused(self, capsys):
        """There is one chooser: ``cost`` is no strategy name."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["explain", "--strategy", "cost", self.SQL])
        assert (
            "invalid choice: 'cost' (choose from 'auto', 'max', 'perst')"
            in capsys.readouterr().err
        )

    def test_strategy_seqset_is_refused(self, capsys):
        """SEQ-SET is MAX's aligned plan, not a strategy of its own."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["explain", "--strategy", "seqset", self.SQL])
        assert (
            "invalid choice: 'seqset' (choose from 'auto', 'max', 'perst')"
            in capsys.readouterr().err
        )

    def test_subcommand_error_exit_code(self, capsys):
        from repro.cli import main

        assert main(["explain", "SELECT FROM WHERE"]) == 1
        assert main(["trace", "SELECT a FROM nope"]) == 1

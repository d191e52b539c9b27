"""An interactive Temporal SQL/PSM shell.

Run ``python -m repro`` and type statements against a fresh stratum::

    taupsm> CREATE TABLE position (emp CHAR(20), title CHAR(30));
    taupsm> ALTER TABLE position ADD VALIDTIME;
    taupsm> INSERT INTO position (emp, title) VALUES ('mia', 'engineer');
    taupsm> VALIDTIME SELECT title FROM position;

Meta-commands (a leading dot):

=================  ========================================================
``.help``          this text
``.tables``        list tables with their temporal dimensions
``.routines``      list stored routines
``.now [DATE]``    show or set CURRENT_DATE
``.clock [DATE]``  show or set the transaction clock (``.clock none`` resets)
``.strategy S``    sequenced strategy: ``max`` / ``perst`` / ``seqset`` /
                   ``auto`` (``SET STRATEGY S`` works as SQL too)
``.transform SQL`` show the conventional SQL a statement transforms into
``.load DS SIZE``  load a τPSM dataset (e.g. ``.load DS1 SMALL``)
``.metrics``       every counter and gauge of the metrics registry
``.trace [on|off]``toggle tracing, or show the last statement's span tree
``.save``          checkpoint the durable database (``--db`` sessions)
``.checkpoint``    alias for ``.save``
``.timeout [S]``   show or set the per-statement deadline (``off`` clears)
``.verify``        scrub the durable store's WAL chain and snapshot
``.quit``          exit (checkpoints first under ``--db``)
=================  ========================================================

Statements may span lines; end them with a semicolon.  ``EXPLAIN
[ANALYZE] <stmt>`` works as a statement, and the same renderings are
available non-interactively::

    python -m repro explain --load DS1 SMALL "VALIDTIME SELECT ..."
    python -m repro trace   --load DS1 SMALL "VALIDTIME SELECT ..."

``--db PATH`` (shell and subcommands) opens a durable database at
``PATH``: committed statements are write-ahead logged, ``.save`` writes
a checkpoint, and the next ``--db PATH`` session recovers the state —
including temporal registrations and routines — even after a crash.

``python -m repro verify --db PATH [--quarantine]`` scrubs a durable
store *offline* (no recovery, no mutation): it walks the WAL CRC chain
and the snapshot header, reports the first torn or corrupt frame, and
with ``--quarantine`` moves the bad suffix to a sidecar file instead of
leaving it to be silently truncated at next open.

``python -m repro serve [--db PATH] [--port P]`` starts the multi-client
asyncio server: each connection gets its own snapshot-isolated session
(see :mod:`repro.server`).
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro.obs.explain import ExplainResult
from repro.sqlengine.errors import SqlError
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.values import Date, Null
from repro.temporal import (
    SlicingStrategy,
    TemporalResult,
    TemporalStratum,
    parse_set_strategy,
)

PROMPT = "taupsm> "
CONTINUATION = "   ...> "


def format_value(value: Any) -> str:
    """One cell, SQL-style (NULL, ISO dates, compact floats)."""
    if value is Null:
        return "NULL"
    if isinstance(value, Date):
        return value.to_iso()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def format_table(columns: list[str], rows: list[list[Any]]) -> str:
    """Render a result as an aligned text table."""
    rendered = [[format_value(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in rendered
    )
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


def format_result(result: Any) -> str:
    """Render any stratum result (DDL/DML/query/CALL) for the terminal."""
    if result is None:
        return "ok"
    if isinstance(result, ExplainResult):
        return result.text()
    if isinstance(result, int):
        return f"{result} row{'s' if result != 1 else ''} affected"
    if isinstance(result, TemporalResult):
        return format_table(result.columns, result.rows)
    if isinstance(result, ResultSet):
        return format_table(result.columns, result.rows)
    if isinstance(result, list):  # CALL result sets
        parts = [format_result(r) for r in result] or ["ok (no result sets)"]
        return "\n\n".join(parts)
    return str(result)


class Shell:
    """The REPL engine, separated from I/O for testability."""

    def __init__(
        self,
        stratum: Optional[TemporalStratum] = None,
        db_path: Optional[str] = None,
    ) -> None:
        if stratum is None:
            stratum = (
                TemporalStratum.open(db_path)
                if db_path is not None
                else TemporalStratum()
            )
        self.stratum = stratum
        self.strategy = SlicingStrategy.AUTO
        self.buffer: list[str] = []
        self.done = False

    @property
    def durable(self) -> bool:
        return self.stratum.db.durability is not None

    # -- line protocol ------------------------------------------------------

    @property
    def prompt(self) -> str:
        """The prompt to display (continuation inside a statement)."""
        return CONTINUATION if self.buffer else PROMPT

    def feed(self, line: str) -> Optional[str]:
        """Process one input line; returns text to print (or None)."""
        stripped = line.strip()
        if not self.buffer and stripped.startswith("."):
            return self.meta(stripped)
        if not stripped and not self.buffer:
            return None
        self.buffer.append(line)
        if not stripped.endswith(";"):
            return None
        statement = "\n".join(self.buffer)
        self.buffer = []
        return self.run_sql(statement)

    def run_sql(self, sql: str) -> str:
        """Execute one statement, returning rendered output or an error."""
        try:
            chosen = parse_set_strategy(sql)
            if chosen is not None:
                self.strategy = chosen
                return f"sequenced strategy = {chosen.value}"
            result = self.stratum.execute(sql, strategy=self.strategy)
        except SqlError as exc:
            return f"error: {exc}"
        suffix = ""
        if self.stratum.last_strategy is not None and isinstance(
            result, (TemporalResult, list)
        ):
            suffix = f"\n(strategy: {self.stratum.last_strategy.value})"
            self.stratum.last_strategy = None
        return format_result(result) + suffix

    # -- meta-commands --------------------------------------------------

    def meta(self, line: str) -> str:
        """Dispatch a dot-command."""
        parts = line.split(None, 1)
        command = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in (".quit", ".exit"):
            self.done = True
            if self.durable:
                try:
                    self.stratum.close()
                except SqlError as exc:
                    return f"error while checkpointing: {exc}\nbye"
                return "checkpointed; bye"
            return "bye"
        if command in (".save", ".checkpoint"):
            return self._save()
        if command == ".timeout":
            return self._timeout(argument)
        if command == ".verify":
            return self._verify()
        if command == ".help":
            return __doc__.split("Meta-commands")[1]
        if command == ".tables":
            return self._tables()
        if command == ".routines":
            return self._routines()
        if command == ".now":
            return self._now(argument)
        if command == ".clock":
            return self._clock(argument)
        if command == ".strategy":
            return self._strategy(argument)
        if command == ".transform":
            return self._transform(argument)
        if command == ".load":
            return self._load(argument)
        if command == ".metrics":
            return self._metrics()
        if command == ".trace":
            return self._trace(argument)
        return f"unknown meta-command {command} (try .help)"

    def _tables(self) -> str:
        lines = []
        for table in sorted(self.stratum.db.catalog.tables(), key=lambda t: t.name):
            dims = []
            if self.stratum.registry.is_temporal(table.name):
                dims.append("valid time")
            if self.stratum.tt_registry.is_temporal(table.name):
                dims.append("transaction time")
            dimension = f" [{', '.join(dims)}]" if dims else ""
            lines.append(f"{table.name} ({len(table)} rows){dimension}")
        return "\n".join(lines) if lines else "no tables"

    def _routines(self) -> str:
        lines = [
            f"{routine.kind.lower()} {routine.name}"
            for routine in sorted(
                self.stratum.db.catalog.routines(), key=lambda r: r.name
            )
        ]
        return "\n".join(lines) if lines else "no routines"

    def _now(self, argument: str) -> str:
        if argument:
            try:
                self.stratum.db.now = Date.from_iso(argument)
            except SqlError as exc:
                return f"error: {exc}"
        return f"CURRENT_DATE = {self.stratum.db.now.to_iso()}"

    def _clock(self, argument: str) -> str:
        if argument:
            if argument.lower() in ("none", "now", "reset"):
                self.stratum.transaction_clock = None
            else:
                try:
                    self.stratum.transaction_clock = Date.from_iso(argument)
                except SqlError as exc:
                    return f"error: {exc}"
        suffix = "" if self.stratum.transaction_clock else " (tracking CURRENT_DATE)"
        return f"transaction clock = {self.stratum.clock.to_iso()}{suffix}"

    def _strategy(self, argument: str) -> str:
        if argument:
            try:
                self.strategy = SlicingStrategy(argument.lower())
            except ValueError:
                return "strategy must be one of: max, perst, seqset, auto"
        return f"sequenced strategy = {self.strategy.value}"

    def _transform(self, argument: str) -> str:
        if not argument:
            return "usage: .transform <temporal statement>"
        sql = argument.rstrip(";")
        try:
            # PERST's transformation under `.strategy perst`, else MAX's
            return self.stratum.transform(sql, self.strategy).to_sql()
        except SqlError as exc:
            return f"error: {exc}"

    def _metrics(self) -> str:
        flat = self.stratum.db.obs.flat()
        if not flat:
            return "no metrics recorded yet"
        return "\n".join(f"{name}: {flat[name]}" for name in sorted(flat))

    def _trace(self, argument: str) -> str:
        tracer = self.stratum.db.tracer
        if argument.lower() == "on":
            tracer.enabled = True
            return "tracing on"
        if argument.lower() == "off":
            tracer.enabled = False
            return "tracing off"
        if argument:
            return "usage: .trace [on|off]"
        if tracer.last_root is None:
            state = "on" if tracer.enabled else "off"
            return f"tracing is {state}; no trace captured yet"
        return tracer.last_root.render()

    def _timeout(self, argument: str) -> str:
        resilience = self.stratum.db.resilience
        if argument:
            if argument.lower() in ("off", "none"):
                resilience.statement_timeout = None
            else:
                try:
                    seconds = float(argument)
                except ValueError:
                    return "usage: .timeout [SECONDS|off]"
                if seconds <= 0:
                    return "usage: .timeout [SECONDS|off]"
                resilience.statement_timeout = seconds
        current = resilience.statement_timeout
        if current is None:
            return "statement timeout = off"
        return f"statement timeout = {current:g}s (SQLSTATE 57014 on expiry)"

    def _verify(self) -> str:
        if not self.durable:
            return "error: no durable database attached (start with --db PATH)"
        try:
            report = self.stratum.verify()
        except SqlError as exc:
            return f"error: {exc}"
        return report.render()

    def _save(self) -> str:
        if not self.durable:
            return "error: no durable database attached (start with --db PATH)"
        try:
            generation = self.stratum.checkpoint()
        except SqlError as exc:
            return f"error: {exc}"
        manager = self.stratum.db.durability
        return (
            f"checkpoint written to {manager.snapshot_path}"
            f" (generation {generation}, WAL truncated)"
        )

    def _load(self, argument: str) -> str:
        parts = argument.split()
        name = parts[0] if parts else "DS1"
        size = parts[1] if len(parts) > 1 else "SMALL"
        try:
            from repro.taubench import build_dataset

            dataset = build_dataset(name, size)
        except ValueError as exc:
            return f"error: {exc}"
        if self.durable:
            # keep the durable stratum: copy the dataset into it so the
            # load itself is WAL-logged and survives reopening
            from repro.taubench.io import copy_dataset_into

            try:
                dataset = copy_dataset_into(self.stratum, dataset)
            except SqlError as exc:
                return f"error: {exc}"
        else:
            self.stratum = dataset.stratum
        return (
            f"loaded {dataset.spec.key}: {dataset.total_rows()} rows across"
            f" six temporal tables (probe item {dataset.probe_item_id},"
            f" author {dataset.probe_author_id})"
        )


def _build_shell(load: Optional[str], db_path: Optional[str] = None) -> Shell:
    shell = Shell(db_path=db_path)
    if load:
        output = shell._load(load.replace("-", " "))
        if output.startswith("error:"):
            raise SystemExit(output)
        print(output, file=sys.stderr)
    return shell


def run_verify(argv: list[str]) -> int:
    """``repro verify``: scrub a durable store offline.

    Usage::

        python -m repro verify --db PATH [--quarantine]

    Exits 0 when the store is clean (or corruption was successfully
    quarantined), 1 otherwise.  Deliberately does *not* open the
    database: opening runs recovery, which would truncate the evidence
    this command exists to report.
    """
    import argparse

    from repro.sqlengine.resilience import verify_store

    parser = argparse.ArgumentParser(prog="repro verify")
    parser.add_argument(
        "--db", metavar="PATH", required=True,
        help="the durable database directory to scrub",
    )
    parser.add_argument(
        "--quarantine", action="store_true",
        help="move a corrupt WAL suffix to a sidecar file",
    )
    args = parser.parse_args(argv)
    report = verify_store(args.db, quarantine=args.quarantine)
    print(report.render())
    return 0 if report.ok else 1


def run_subcommand(argv: list[str]) -> int:
    """``repro explain`` / ``repro trace``: one statement, no REPL.

    Usage::

        python -m repro explain [--analyze] [--strategy S] [--load DS SIZE] SQL
        python -m repro trace   [--strategy S] [--load DS SIZE] SQL

    ``explain`` prints the EXPLAIN rendering (add ``--analyze`` to
    execute and append measured facts); ``trace`` executes the statement
    with tracing enabled and prints the span tree plus the metrics the
    run recorded.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("explain", "trace"):
        p = sub.add_parser(name)
        p.add_argument("sql", help="the Temporal SQL/PSM statement")
        p.add_argument(
            "--load", nargs=2, metavar=("DS", "SIZE"),
            help="load a τPSM dataset first (e.g. --load DS1 SMALL)",
        )
        p.add_argument(
            "--db", metavar="PATH",
            help="open a durable database directory (recovers on open)",
        )
        p.add_argument(
            "--strategy", default="auto",
            choices=["auto", "max", "perst", "seqset"],
        )
        if name == "explain":
            p.add_argument("--analyze", action="store_true")
    args = parser.parse_args(argv)
    shell = _build_shell(
        " ".join(args.load) if args.load else None, db_path=args.db
    )
    stratum = shell.stratum
    strategy = SlicingStrategy(args.strategy)
    sql = args.sql.rstrip(";")
    try:
        if args.command == "explain":
            from repro.obs.explain import explain_statement
            from repro.sqlengine.parser import parse_statement

            result = explain_statement(
                stratum, parse_statement(sql), getattr(args, "analyze", False),
                strategy,
            )
            print(result.text())
        else:
            stratum.db.tracer.enabled = True
            stratum.execute(sql, strategy=strategy)
            root = stratum.db.tracer.last_root
            print(root.render() if root else "(no spans recorded)")
            print()
            print(shell._metrics())
    except SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shell.stratum.db.close()
    return 0


def run_serve(argv: list[str]) -> int:
    """``repro serve``: the multi-client asyncio server.

    Usage::

        python -m repro serve [--db PATH] [--host H] [--port P]
                              [--load DS SIZE]

    Each connected client gets its own session with snapshot-isolated
    MVCC semantics; the wire protocol is length-prefixed JSON (see
    :mod:`repro.server`).  SIGINT/SIGTERM trigger a graceful drain:
    in-flight statements finish, sessions roll back, and a durable
    store is checkpointed before exit.
    """
    import argparse
    import asyncio
    import signal

    from repro.server import ReproServer

    parser = argparse.ArgumentParser(prog="repro serve")
    parser.add_argument(
        "--db", metavar="PATH",
        help="serve a durable database directory (recovers on open)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878)
    parser.add_argument(
        "--load", nargs=2, metavar=("DS", "SIZE"),
        help="load a τPSM dataset first (e.g. --load DS1 SMALL)",
    )
    args = parser.parse_args(argv)
    shell = _build_shell(
        " ".join(args.load) if args.load else None, db_path=args.db
    )
    stratum = shell.stratum

    async def run() -> None:
        server = ReproServer(stratum, host=args.host, port=args.port)
        host, port = await server.start()
        print(f"repro server listening on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await server.serve_until(stop)

    try:
        asyncio.run(run())
    finally:
        stratum.db.close()
    print("repro server stopped", flush=True)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point: subcommand dispatch, or the interactive loop."""
    argv = argv if argv is not None else sys.argv[1:]
    if argv and argv[0] == "verify":
        return run_verify(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] in ("explain", "trace"):
        return run_subcommand(argv)
    import argparse

    parser = argparse.ArgumentParser(prog="repro")
    parser.add_argument(
        "--db", metavar="PATH",
        help="open a durable database directory (recovers on open;"
        " checkpointed on .quit)",
    )
    args = parser.parse_args(argv)
    shell = Shell(db_path=args.db)
    print("Temporal SQL/PSM shell — .help for commands, .quit to exit")
    if shell.durable:
        manager = shell.stratum.db.durability
        print(f"durable database at {manager.dir} (generation {manager.generation})")
    try:
        while not shell.done:
            try:
                line = input(shell.prompt)
            except EOFError:
                print()
                break
            output = shell.feed(line)
            if output is not None:
                print(output)
    except KeyboardInterrupt:
        print()
    finally:
        shell.stratum.db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

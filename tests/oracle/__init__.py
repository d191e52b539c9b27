"""The snapshot-reducibility oracle: the one check of sequenced results.

The paper's contract (§III, validated in §VII-B as "commutativity"): a
sequenced statement equals the conventional statement run on every
timeslice of the database.  Three pieces, none of them the engine's
temporal code:

* :func:`timeslice` — the conventional database a reader sees at one
  granule: every table's rows alive there, without their period columns,
  plus the statement's routines in their original definitions;
* :func:`reference` — the *untransformed* conventional statement run on
  a timeslice through the reference evaluators
  (``tests/reference_executor.py`` + ``tests/reference_psm.py``: no
  stratum, no planner, no compiled routine body);
* :func:`check` — the statement run under each strategy, its stamped
  rows expanded into a bag per granule (a CALL's result sets pooled) and
  compared with the reference's bag at every granule of the context.
  Bags, not sets: a duplicate is a wrong answer (Dignös et al.,
  *Snapshot Semantics for Temporal Multiset Relations*).

Both sides are constant between consecutive change points — of the data
for the reference, of the stamped rows for the result — so one
comparison at the start of each elementary segment decides every granule
in it.  A statement that reads CURRENT_DATE is compared at every granule.

Accepted outcomes: equal bags; a reference error matched by an error of
the same SQLSTATE (of the same class where it has none); a typed refusal
(:data:`REFUSALS`).  A modification passes when every slice inside the
context equals the conventional statement applied to the parent's
slice, and every slice outside it is unchanged; it is then rolled back,
so each strategy modifies the same database.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional, Union

from repro.sqlengine import Database
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Routine
from repro.sqlengine.errors import SqlError
from repro.sqlengine.executor import Env
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.storage import Column, Table
from repro.sqlengine.values import Date
from repro.temporal import SlicingStrategy, TemporalStratum
from repro.temporal.errors import (
    FeatureNotSupportedError,
    PerStatementInapplicableError,
)
from repro.temporal.period import Period
from repro.temporal.transform_util import clone

from tests.reference_executor import installed

# the refusals a strategy may answer with instead of rows: the typed
# "not supported" (0A000) and PERST's "use maximal slicing"
REFUSALS = (FeatureNotSupportedError, PerStatementInapplicableError)
MODIFICATIONS = (ast.Insert, ast.Update, ast.Delete)
# the stratum's own scratch tables (constant periods, PERST's variable
# tables) are no part of what a conventional reader sees
SCRATCH_PREFIX = "taupsm_"


def _statement(sql: Union[str, ast.Statement]) -> ast.Statement:
    return parse_statement(sql) if isinstance(sql, str) else sql


def _registries(stratum: TemporalStratum) -> dict:
    return {"VALID": stratum.registry, "TRANSACTION": stratum.tt_registry}


def _alive(begin: Any, end: Any, point: int) -> bool:
    """NULL, empty and inverted periods are alive nowhere."""
    return (
        isinstance(begin, Date) and isinstance(end, Date)
        and begin.ordinal <= point < end.ordinal
    )


def _sliced_tables(stratum: TemporalStratum) -> Iterable:
    db = stratum.db
    for table in db.catalog.tables():
        if not table.temporary and not table.name.lower().startswith(SCRATCH_PREFIX):
            yield db.read_table(table.name)


def _period_columns(stratum: TemporalStratum, table) -> dict:
    """dimension → (begin index, end index) of ``table``'s period pairs."""
    pairs = {}
    for dimension, registry in _registries(stratum).items():
        info = registry.get(table.name)
        if info is not None:
            pairs[dimension] = (
                table.column_index(info.begin_column),
                table.column_index(info.end_column),
            )
    return pairs


def timeslice(
    stratum: TemporalStratum,
    granule: int,
    stmt: Optional[ast.Statement] = None,
    dimension: str = "VALID",
) -> Database:
    """The conventional database a reader sees at ``granule`` along
    ``dimension``: each table's rows alive there without their period
    columns (along the other dimension, the rows current at now or at
    the clock; a conventional table whole), and the routines ``stmt``
    reaches, installed from their original definitions."""
    # where the reader stands on each time dimension
    at = {"VALID": stratum.db.now.ordinal, "TRANSACTION": stratum.clock.ordinal}
    at[dimension] = granule
    now = Date(granule) if dimension == "VALID" else stratum.db.now
    copy = Database(now=now)
    for table in _sliced_tables(stratum):
        pairs = _period_columns(stratum, table)
        dropped = {index for pair in pairs.values() for index in pair}
        keep = [i for i in range(len(table.columns)) if i not in dropped]
        columns = [Column(table.columns[i].name, table.columns[i].type) for i in keep]
        copy.catalog.add_table(Table(table.name, columns))
        copy.insert_rows(table.name, [
            [row[i] for i in keep]
            for row in table.rows
            if all(
                _alive(row[b], row[e], at[along]) for along, (b, e) in pairs.items()
            )
        ])
    if stmt is not None:
        for routine in stratum.db.catalog.reach(stmt).routines.values():
            copy.catalog.add_routine(
                Routine(kind=routine.kind, definition=routine.definition)
            )
    return copy


def contents(db: Database) -> dict:
    """Every table of ``db`` as a bag of rows."""
    return {
        table.name.lower(): Counter(map(tuple, table.rows))
        for table in db.catalog.tables()
    }


def _conventional(stmt: ast.Statement) -> ast.Statement:
    """``stmt`` without its temporal modifier."""
    plain = clone(stmt)
    plain.modifier = None
    return plain


def _bag(result: Any) -> Counter:
    results = result if isinstance(result, list) else [result]
    return Counter(tuple(row) for one in results if one is not None for row in one.rows)


def reference(
    stratum: TemporalStratum,
    sql: Union[str, ast.Statement],
    granule: int,
    dimension: str = "VALID",
) -> Union[Counter, SqlError]:
    """The conventional statement's bag of rows (a CALL's result sets
    pooled) on the timeslice at ``granule``, or the error it raises."""
    stmt = _statement(sql)
    copy = timeslice(stratum, granule, stmt, dimension)
    with installed(copy):
        try:
            return _bag(copy.execute_ast(_conventional(stmt)))
        except SqlError as exc:
            return exc


def context_of(stratum: TemporalStratum, stmt: ast.Statement) -> Period:
    modifier = stmt.modifier
    if modifier is None or modifier.begin is None:
        raise ValueError(f"not a sequenced statement with a context: {stmt.to_sql()}")
    evaluate = stratum.db.executor.evaluate
    begin, end = evaluate(modifier.begin, Env()), evaluate(modifier.end, Env())
    return Period(begin.ordinal, end.ordinal)


def change_points(stratum: TemporalStratum, dimension: str = "VALID") -> set:
    """Every Date bound of every sliced table's periods along ``dimension``."""
    points = set()
    for table in _sliced_tables(stratum):
        pair = _period_columns(stratum, table).get(dimension)
        if pair is not None:
            for row in table.rows:
                points.update(
                    row[i].ordinal for i in pair if isinstance(row[i], Date)
                )
    return points


def _reads_current_date(stratum: TemporalStratum, stmt: ast.Statement) -> bool:
    roots = [stmt] + [
        routine.definition
        for routine in stratum.db.catalog.reach(stmt).routines.values()
    ]
    return any(
        isinstance(node, ast.FunctionCall) and node.name.upper() == "CURRENT_DATE"
        for root in roots
        for node in ast.walk(root)
    )


def _segment_starts(points: Iterable[int], context: Period) -> list[int]:
    return sorted({context.begin} | {p for p in points if context.contains(p)})


def _covering(starts: list[int], point: int) -> int:
    """The last of ``starts`` at or before ``point``."""
    return max(start for start in starts if start <= point)


def stamped(outcome: Any) -> list[tuple[tuple, Any, Any]]:
    """A sequenced result's rows as (values, begin, end), a CALL's
    result sets pooled."""
    results = outcome if isinstance(outcome, list) else [outcome]
    return [
        (tuple(row[:-2]), row[-2], row[-1])
        for result in results
        for row in result.rows
    ]


def bag_at(rows: list[tuple[tuple, Any, Any]], granule: int) -> Counter:
    """The snapshot of stamped rows at ``granule``."""
    return Counter(values for values, begin, end in rows if _alive(begin, end, granule))


def _day(granule: int) -> str:
    return Date(granule).to_iso()


def _same_error(error: SqlError, expected: SqlError) -> bool:
    state = getattr(expected, "sqlstate", None)
    if state is not None:
        return getattr(error, "sqlstate", None) == state
    return type(error) is type(expected)


def _diff(result: Counter, expected: Counter) -> str:
    extra, missing = result - expected, expected - result
    return (
        f"{sum(extra.values())} row(s) only in the result"
        f" {sorted(extra.items(), key=repr)[:4]},"
        f" {sum(missing.values())} only in the reference"
        f" {sorted(missing.items(), key=repr)[:4]}"
    )


class Expected:
    """The reference's answers to one sequenced query on the database as
    it stands: one bag (or error) per elementary segment of the context,
    computed once for every strategy compared against it."""

    def __init__(self, stratum: TemporalStratum, sql: Union[str, ast.Statement]) -> None:
        stmt = _statement(sql)
        self.context = context_of(stratum, stmt)
        dimension = stmt.modifier.dimension
        data = (
            range(self.context.begin, self.context.end)
            if _reads_current_date(stratum, stmt)
            else change_points(stratum, dimension)
        )
        self.starts = _segment_starts(data, self.context)
        self.answers = {
            g: reference(stratum, stmt, g, dimension) for g in self.starts
        }
        self.errors = {
            g: e for g, e in self.answers.items() if isinstance(e, SqlError)
        }

    def compare(self, outcome: Any) -> None:
        """Assert that ``outcome`` — what a sequenced query returned (a
        :class:`TemporalResult`, a CALL's list of them) or raised — equals
        the reference at every granule of the context.  The assertion
        names the first granule that differs."""
        errors = self.errors
        if isinstance(outcome, SqlError):
            assert any(_same_error(outcome, e) for e in errors.values()), (
                f"raised {type(outcome).__name__}: {outcome}; the reference "
                + (
                    "raises " + "; ".join(
                        f"{type(e).__name__} at {_day(g)}" for g, e in errors.items()
                    )
                    if errors else "answers at every granule"
                )
            )
            return
        if errors:
            granule, error = next(iter(errors.items()))
            raise AssertionError(
                f"at {_day(granule)}: the reference raises {type(error).__name__}"
                f" ({error}); the statement answered"
            )
        rows = stamped(outcome)
        for values, begin, end in rows:
            assert isinstance(begin, Date) and isinstance(end, Date), (
                f"row {values} is stamped [{begin}, {end}), not with two dates"
            )
        bounds = {b.ordinal for _, begin, end in rows for b in (begin, end)}
        for granule in _segment_starts(set(self.starts) | bounds, self.context):
            result = bag_at(rows, granule)
            want = self.answers[_covering(self.starts, granule)]
            assert result == want, f"at {_day(granule)}: {_diff(result, want)}"


class ExpectedModification:
    """The reference's slices for one sequenced modification on the
    database as it stands: inside the context each slice becomes the
    conventional statement applied to the parent's slice; outside it,
    and everywhere when the statement raises, each slice stays as it
    was."""

    def __init__(self, stratum: TemporalStratum, sql: Union[str, ast.Statement]) -> None:
        stmt = _statement(sql)
        self.stratum, self.stmt = stratum, stmt
        self.context = context_of(stratum, stmt)
        self.dimension = stmt.modifier.dimension
        plain = _conventional(stmt)
        self.starts = sorted(
            {Date.MIN_ORDINAL, self.context.begin, self.context.end}
            | change_points(stratum, self.dimension)
        )
        self.before, self.after = {}, {}
        for granule in self.starts:
            copy = timeslice(stratum, granule, stmt, self.dimension)
            self.before[granule] = self.after[granule] = contents(copy)
            if self.context.contains(granule):
                with installed(copy):
                    try:
                        copy.execute_ast(clone(plain))
                        self.after[granule] = contents(copy)
                    except SqlError as exc:
                        self.after[granule] = exc
        self.errors = [e for e in self.after.values() if isinstance(e, SqlError)]

    def compare(self, outcome: Any) -> None:
        """Assert that the database, after the statement returned or
        raised ``outcome``, holds the expected slices.  The assertion
        names the first table and granule that differ."""
        errors = self.errors
        if isinstance(outcome, SqlError):
            assert any(_same_error(outcome, e) for e in errors), (
                f"raised {type(outcome).__name__}: {outcome}; the reference "
                + ("raises " + ", ".join(map(repr, errors)) if errors else "does not")
            )
            expected = self.before
        else:
            assert not errors, f"the reference raises {errors[0]!r}; the statement ran"
            expected = self.after
        stratum, dimension = self.stratum, self.dimension
        for granule in sorted(set(self.starts) | change_points(stratum, dimension)):
            after = contents(timeslice(stratum, granule, self.stmt, dimension))
            want = expected[_covering(self.starts, granule)]
            inside = "inside" if self.context.contains(granule) else "outside"
            for name in sorted(set(after) | set(want)):
                got, wanted = after.get(name, Counter()), want.get(name, Counter())
                assert got == wanted, (
                    f"{name} at {_day(granule)} ({inside} the context):"
                    f" {_diff(got, wanted)}"
                )


@contextmanager
def _rolled_back(db: Database, writes: bool) -> Iterator[None]:
    """Run the body in a transaction rolled back after it, when it writes."""
    if not writes:
        yield
        return
    db.execute("BEGIN")
    try:
        yield
    finally:
        db.execute("ROLLBACK")


def check(
    stratum: TemporalStratum,
    sql: str,
    strategies: Iterable[SlicingStrategy] = (SlicingStrategy.MAX,),
    expected: Union[Expected, ExpectedModification, None] = None,
) -> dict:
    """Run the sequenced ``sql`` under each of ``strategies`` and hold it
    to the reference: strategy → ``"agrees"`` or ``"refused"`` (a typed
    refusal), or an AssertionError naming the strategy and the granule
    that differs.  ``expected`` is the reference, when the caller built
    it on the database as it stands.  The database is left as it was: a
    modification runs in a transaction rolled back once its slices are
    compared, so every strategy modifies the same database."""
    stmt = parse_statement(sql)
    writes = isinstance(stmt, MODIFICATIONS)
    if expected is None:
        expected = (ExpectedModification if writes else Expected)(stratum, stmt)
    verdicts = {}
    for strategy in strategies:
        with _rolled_back(stratum.db, writes):
            try:
                outcome = stratum.execute(sql, strategy=strategy)
            except REFUSALS:
                verdicts[strategy] = "refused"
                continue
            except SqlError as exc:
                outcome = exc
            try:
                expected.compare(outcome)
            except AssertionError as exc:
                raise AssertionError(f"{strategy.value}: {exc}") from None
        verdicts[strategy] = "agrees"
    return verdicts

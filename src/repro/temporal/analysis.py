"""Compile-time analysis over SQL/PSM ASTs: the questions that need the
temporal registry.

What a statement reaches through the call graph is one walk of the
statement plus the facts each routine body records once
(:meth:`Catalog.reach`, :attr:`Routine.facts`).  Every question here
reads that closure.  A ``root`` is a node, a stored routine's name or
:class:`BodyFacts`.  The stratum needs to know, *before* transforming
(paper §V-A, §V-C, §VII-A2, §VII-F):

* which temporal tables a statement reaches
  (:func:`reachable_temporal_tables`, :func:`reads_temporal`) — the
  input to constant-period computation;
* which routines it reaches read temporal data, hence are cloned
  (:func:`temporal_routines`);
* whether a routine drives a cursor over temporal data, which PERST
  evaluates per constant period (:func:`temporal_cursor`,
  :func:`uses_per_period_cursors`);
* whether a routine body contains an explicit temporal modifier, which
  restricts it to nonsequenced contexts (:func:`has_inner_modifier`);
* whether per-statement slicing applies (:func:`check_perst_applicable`
  — the paper's q17b non-nested-FETCH restriction, and q8's ordered
  FOR whose last row wins).
"""

from __future__ import annotations

from typing import Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import BodyFacts, Catalog, Routine
from repro.temporal.errors import PerStatementInapplicableError
from repro.temporal.schema import TemporalRegistry

Root = Union[ast.Node, str, BodyFacts]

# ---------------------------------------------------------------------------
# temporal reach
# ---------------------------------------------------------------------------


def reachable_temporal_tables(
    root: Root, catalog: Catalog, registry: TemporalRegistry
) -> list[str]:
    """Sorted temporal-table names ``root`` reaches, directly or through
    the routines it (transitively) invokes."""
    return sorted(
        name for name in catalog.reach(root).tables if registry.is_temporal(name)
    )


def reads_temporal(root: Root, catalog: Catalog, registry: TemporalRegistry) -> bool:
    """True if ``root`` touches temporal data, directly or indirectly."""
    return any(registry.is_temporal(name) for name in catalog.reach(root).tables)


def temporal_routines(
    root: Root, catalog: Catalog, registry: TemporalRegistry
) -> list[str]:
    """The routines ``root`` reaches that read temporal data, in call
    order: the ones a transformation clones under its prefix.  Routines
    that never touch temporal data stay untouched (the paper's
    compile-time reachability optimization, §V-C)."""
    return [
        name for name in catalog.reach(root).routines
        if reads_temporal(name, catalog, registry)
    ]


def temporal_cursor(
    routine: Routine, catalog: Catalog, registry: TemporalRegistry
) -> bool:
    """Does ``routine`` declare a cursor whose select reaches temporal
    data, directly or through a routine?  PERST then evaluates its body
    per constant period (§VII-C)."""
    cursors = routine.facts.cursors
    return cursors is not None and reads_temporal(cursors, catalog, registry)


def uses_per_period_cursors(
    root: Root, catalog: Catalog, registry: TemporalRegistry
) -> bool:
    """Rule (b)'s trigger (§VII-F): a routine ``root`` reaches is one
    PERST evaluates per constant period (:func:`temporal_cursor`)."""
    return any(
        temporal_cursor(routine, catalog, registry)
        for routine in catalog.reach(root).routines.values()
    )


# ---------------------------------------------------------------------------
# inner temporal modifiers (§IV-A)
# ---------------------------------------------------------------------------


def has_inner_modifier(node: ast.Node) -> bool:
    """True if any statement beneath ``node`` carries a temporal modifier."""
    for child in ast.walk(node):
        if child is not node and getattr(child, "modifier", None) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# PERST applicability (§VII-A2: the q17b restriction; q8's ordered FOR)
# ---------------------------------------------------------------------------


def check_perst_applicable(
    stmt: ast.Statement, catalog: Catalog, registry: TemporalRegistry
) -> None:
    """Raise :class:`PerStatementInapplicableError` for the q17b and q8
    patterns.

    Per-statement slicing turns every temporal routine result into a
    per-period loop that encloses the *remainder* of the surrounding loop
    body.  A FETCH of a cursor declared *outside* the loop that appears
    lexically *after* such a temporal result cannot be hoisted into the
    per-period loops (it would fetch once per period instead of once per
    outer iteration) — the paper's "non-nested FETCH".

    A ``FOR`` over an ordered SELECT that reaches temporal data, whose
    body assigns a variable declared outside the loop, leaves that
    variable holding what the *last* qualifying row in that order set —
    per snapshot.  PERST's one pass over the whole context orders rows
    across periods, so the last row of one snapshot is not the last row
    of the pass (q8's ``short_book_title``).
    """

    def check(node: ast.Statement, outer_cursors: frozenset) -> None:
        if isinstance(node, ast.Compound):
            outer_cursors = outer_cursors | {
                decl.name.lower() for decl in node.declarations
                if isinstance(decl, ast.DeclareCursor)
            }
            children = node.statements
        else:
            children = ast.iter_children(node)
        if (
            isinstance(node, ast.ForStatement)
            and node.select.order_by
            and reads_temporal(node.select, catalog, registry)
        ):
            outer = _assigned(node.body) - _declared(node.body)
            if outer:
                raise PerStatementInapplicableError(
                    "per-statement slicing cannot transform a FOR over an"
                    " ordered time-varying SELECT whose body assigns outer"
                    f" variable(s) {', '.join(sorted(outer))} (the last row"
                    " of each snapshot wins, cf. q8)"
                )
        if isinstance(node, (ast.WhileStatement, ast.RepeatStatement, ast.LoopStatement)):
            # a FETCH of an outer cursor after a time-varying result (a
            # statement reaching temporal data) at the loop body's level
            produced = False
            for inner in node.body:
                if (
                    produced
                    and isinstance(inner, ast.FetchCursor)
                    and inner.name.lower() in outer_cursors
                ):
                    raise PerStatementInapplicableError(
                        "per-statement slicing cannot transform a FETCH of outer"
                        f" cursor {inner.name!r} placed after a time-varying"
                        " result in the same loop body (non-nested FETCH, cf."
                        " q17b)"
                    )
                produced = produced or reads_temporal(inner, catalog, registry)
        for child in children:
            if isinstance(child, ast.PsmStatement):
                check(child, outer_cursors)

    check(stmt, frozenset())
    for name in temporal_routines(stmt, catalog, registry):
        check(catalog.get_routine(name).definition.body, frozenset())


def _assigned(body: list) -> set[str]:
    """Names a SET, FETCH or SELECT INTO under ``body`` assigns."""
    return {
        target.lower()
        for node in ast.walk(body)
        if isinstance(node, (ast.SetStatement, ast.FetchCursor, ast.SelectInto))
        for target in node.targets
    }


def _declared(body: list) -> set[str]:
    """Variable names declared under ``body``."""
    return {
        name.lower()
        for node in ast.walk(body)
        if isinstance(node, ast.DeclareVariable)
        for name in node.names
    }

"""Shared AST-building and rewriting helpers for the transformations.

All transformations deep-copy their input first (:func:`clone`) and then
mutate the copy; original ASTs registered with the stratum are never
touched.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.sqlengine import ast_nodes as ast


@dataclass
class TransformResult:
    """What a transformation returns: the transformed statement, the
    routine clones it calls, and the constant-period tables it reads —
    each cp table's name mapped to the temporal tables whose change
    points it must contain (the stratum materializes them for the
    statement's context before it runs)."""

    statement: ast.Statement
    routines: list[Union[ast.CreateFunction, ast.CreateProcedure]] = field(
        default_factory=list
    )
    cp_requirements: dict[str, list[str]] = field(default_factory=dict)

    def to_sql(self) -> str:
        parts = [r.to_sql() + ";" for r in self.routines]
        parts.append(self.statement.to_sql() + ";")
        return "\n\n".join(parts)


def clone(node: ast.Node) -> ast.Node:
    """Deep-copy an AST node tree."""
    return copy.deepcopy(node)


# ---------------------------------------------------------------------------
# expression builders
# ---------------------------------------------------------------------------


def name(qualifier: Optional[str], column: str) -> ast.Name:
    return ast.Name(qualifier=qualifier, name=column)


def lit(value) -> ast.Literal:
    return ast.Literal(value=value)


def call(function: str, *args: ast.Expression) -> ast.FunctionCall:
    return ast.FunctionCall(name=function, args=list(args))


def and_all(conditions: Sequence[ast.Expression]) -> Optional[ast.Expression]:
    """Conjoin conditions left-to-right; None for an empty sequence."""
    result: Optional[ast.Expression] = None
    for condition in conditions:
        result = condition if result is None else ast.BinaryOp(
            op="AND", left=result, right=condition
        )
    return result


def add_condition(select: ast.Select, condition: Optional[ast.Expression]) -> None:
    """AND ``condition`` onto the select's WHERE clause."""
    if condition is None:
        return
    if select.where is None:
        select.where = condition
    else:
        select.where = ast.BinaryOp(op="AND", left=select.where, right=condition)


def cmp(op: str, left: ast.Expression, right: ast.Expression) -> ast.BinaryOp:
    return ast.BinaryOp(op=op, left=left, right=right)


def overlap_at_point(
    alias: str, point: ast.Expression, begin_col: str = "begin_time",
    end_col: str = "end_time",
) -> ast.Expression:
    """``alias.begin <= point AND point < alias.end`` (paper §V-B).

    Checking containment of the period *start* suffices inside a constant
    period, where by construction nothing changes.
    """
    return ast.BinaryOp(
        op="AND",
        left=cmp("<=", name(alias, begin_col), clone(point)),
        right=cmp("<", clone(point), name(alias, end_col)),
    )


def fold_last_instance(exprs: Sequence[ast.Expression]) -> ast.Expression:
    """Nested LAST_INSTANCE(...) — the latest of the given times."""
    result = exprs[0]
    for expr in exprs[1:]:
        result = call("LAST_INSTANCE", result, expr)
    return result


def fold_first_instance(exprs: Sequence[ast.Expression]) -> ast.Expression:
    """Nested FIRST_INSTANCE(...) — the earliest of the given times."""
    result = exprs[0]
    for expr in exprs[1:]:
        result = call("FIRST_INSTANCE", result, expr)
    return result


def pairwise_overlap(
    sources: Sequence[tuple[ast.Expression, ast.Expression]],
) -> list[ast.Expression]:
    """Overlap predicates making every source period intersect every other.

    ``sources`` holds (begin_expr, end_expr) pairs.  In one dimension,
    pairwise overlap implies a common intersection (Helly), so these
    predicates guarantee the folded intersection period is non-empty.
    """
    conditions: list[ast.Expression] = []
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            begin_i, end_i = sources[i]
            begin_j, end_j = sources[j]
            conditions.append(cmp("<", clone(begin_i), clone(end_j)))
            conditions.append(cmp("<", clone(begin_j), clone(end_i)))
    return conditions


# ---------------------------------------------------------------------------
# generic rewriting
# ---------------------------------------------------------------------------


def rewrite_expressions(
    node: ast.Node,
    rewriter: Callable[[ast.Expression], Optional[ast.Expression]],
    into_selects: bool = True,
) -> ast.Node:
    """Bottom-up, in-place rewrite of every Expression under ``node``.

    ``rewriter`` returns a replacement node or None to keep the original.
    Replacement happens by reassigning the parent's dataclass fields, so
    the rewriter may return entirely different expression types; the
    result is ``node`` or, when the root itself was replaced, its
    replacement.  With ``into_selects`` false the rewrite does not
    descend into a nested Select (a subquery keeps its expressions).
    """
    replaced = _rewrite(node, rewriter, into_selects)
    return node if replaced is None else replaced


def _rewrite(
    value: object,
    rewriter: Callable[[ast.Expression], Optional[ast.Expression]],
    into_selects: bool,
) -> object:
    """:func:`rewrite_expressions` under one value: the replacement of
    ``value`` (a node or a tuple), or None to keep it."""
    if isinstance(value, ast.Node):
        if not into_selects and isinstance(value, ast.Select):
            return None
        for f in fields(value):
            replacement = _rewrite(getattr(value, f.name), rewriter, into_selects)
            if replacement is not None:
                setattr(value, f.name, replacement)
        if isinstance(value, ast.Expression):
            return rewriter(value)
        return None
    if isinstance(value, list):
        for index, item in enumerate(value):
            replacement = _rewrite(item, rewriter, into_selects)
            if replacement is not None:
                value[index] = replacement
        return None
    if isinstance(value, tuple):
        items = list(value)
        changed = False
        for index, item in enumerate(items):
            replacement = _rewrite(item, rewriter, into_selects)
            if replacement is not None:
                items[index] = replacement
                changed = True
        return tuple(items) if changed else None
    return None


def map_bodies(
    stmt: ast.Statement,
    body_fn: Callable[[list[ast.Statement]], list[ast.Statement]],
    expr_fn: Callable[[ast.Node], ast.Node] = clone,
) -> Optional[ast.Statement]:
    """A copy of a control statement with its parts mapped, or None.

    IF, CASE, WHILE, REPEAT, LOOP, FOR and compound statements are
    copied with every statement list mapped by ``body_fn`` and every
    condition (a CASE operand, a FOR's select, a compound's
    declarations) by ``expr_fn``; labels and flags are kept.  Any other
    statement has no bodies: the result is None.
    """
    def optional(function, value):
        return None if value is None else function(value)

    if isinstance(stmt, ast.IfStatement):
        return stmt.copy(
            branches=[(expr_fn(cond), body_fn(body)) for cond, body in stmt.branches],
            else_branch=optional(body_fn, stmt.else_branch),
        )
    if isinstance(stmt, ast.CaseStatement):
        return stmt.copy(
            whens=[(expr_fn(when), body_fn(body)) for when, body in stmt.whens],
            else_branch=optional(body_fn, stmt.else_branch),
            operand=optional(expr_fn, stmt.operand),
        )
    if isinstance(stmt, ast.WhileStatement):
        return stmt.copy(condition=expr_fn(stmt.condition), body=body_fn(stmt.body))
    if isinstance(stmt, ast.RepeatStatement):
        return stmt.copy(body=body_fn(stmt.body), until=expr_fn(stmt.until))
    if isinstance(stmt, ast.LoopStatement):
        return stmt.copy(body=body_fn(stmt.body))
    if isinstance(stmt, ast.ForStatement):
        return stmt.copy(select=expr_fn(stmt.select), body=body_fn(stmt.body))
    if isinstance(stmt, ast.Compound):
        return stmt.copy(
            declarations=[expr_fn(decl) for decl in stmt.declarations],
            statements=body_fn(stmt.statements),
        )
    return None


def rename_routine_calls(
    node: ast.Node,
    mapping: dict[str, str],
    extra_args: Optional[Callable[[], list[ast.Expression]]] = None,
) -> None:
    """Rename calls to the routines in ``mapping`` (lower-cased keys),
    optionally appending extra arguments to each renamed call."""

    def rewriter(expr: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(expr, ast.FunctionCall):
            target = mapping.get(expr.name.lower())
            if target is not None:
                expr.name = target
                if extra_args is not None:
                    expr.args = expr.args + extra_args()
        return None

    rewrite_expressions(node, rewriter)
    for child in ast.walk(node):
        if isinstance(child, ast.CallStatement):
            target = mapping.get(child.name.lower())
            if target is not None:
                child.name = target
                if extra_args is not None:
                    child.args = child.args + extra_args()


def selects_in(node: ast.Node) -> Iterable[ast.Select]:
    """Every Select node in the tree (including the root if applicable)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Select):
            yield child


def from_table_aliases(select: ast.Select) -> list[tuple[str, str]]:
    """(table_name_lower, binding_alias) for plain table refs in FROM."""
    pairs: list[tuple[str, str]] = []
    for item in select.from_items:
        pairs += _tables_of(item)
    return pairs


def _tables_of(item: ast.FromItem) -> list[tuple[str, str]]:
    """(table_name_lower, binding_alias) of the plain table refs under
    ``item``, left to right."""
    if isinstance(item, ast.TableRef):
        return [(item.name.lower(), item.binding)]
    if isinstance(item, ast.Join):
        return _tables_of(item.left) + _tables_of(item.right)
    return []


def classify_from_sources(
    select: ast.Select,
) -> tuple[list[tuple[str, str]], list[tuple[ast.Join, list[tuple[str, str]]]]]:
    """Split a select's table sources by where their predicates belong.

    Returns ``(where_pairs, join_pairs)``: plain tables and inner-join
    sides take extra predicates in the WHERE clause; the *right* side of
    a LEFT join must take them in that join's ON condition, or the
    predicate would silently discard null-extended rows and turn the
    outer join into an inner one.
    """
    where_pairs: list[tuple[str, str]] = []
    join_pairs: list[tuple[ast.Join, list[tuple[str, str]]]] = []
    for item in select.from_items:
        _classify(item, where_pairs, join_pairs)
    return where_pairs, join_pairs


def _classify(item: ast.FromItem, where_pairs: list, join_pairs: list) -> None:
    """:func:`classify_from_sources` under one FROM item."""
    if isinstance(item, ast.Join):
        if item.kind == "LEFT":
            _classify(item.left, where_pairs, join_pairs)
            join_pairs.append((item, _tables_of(item.right)))
        elif item.kind == "RIGHT":
            # the LEFT operand is the null-extended side
            join_pairs.append((item, _tables_of(item.left)))
            _classify(item.right, where_pairs, join_pairs)
        else:
            _classify(item.left, where_pairs, join_pairs)
            _classify(item.right, where_pairs, join_pairs)
    elif isinstance(item, ast.TableRef):
        where_pairs.append((item.name.lower(), item.binding))


def add_join_condition(join: ast.Join, condition: ast.Expression) -> None:
    """AND a condition onto a join's ON clause."""
    if join.condition is None:
        join.condition = condition
    else:
        join.condition = ast.BinaryOp(
            op="AND", left=join.condition, right=condition
        )


def unique_name(base: str, taken: set[str]) -> str:
    """A name not in ``taken`` (case-insensitive), derived from ``base``."""
    candidate = base
    counter = 1
    while candidate.lower() in taken:
        counter += 1
        candidate = f"{base}{counter}"
    taken.add(candidate.lower())
    return candidate

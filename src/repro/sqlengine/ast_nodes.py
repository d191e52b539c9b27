"""Abstract syntax tree for SQL + PSM.

Every node can render itself back to SQL text via ``to_sql()``; the
temporal stratum's transformations are AST-to-AST, and the rendered text
of a transformed statement is what a stratum in front of a real DBMS
would ship to the engine (compare the paper's Figures 5-11).

Statement nodes carry an optional ``modifier`` — the temporal statement
modifier (``VALIDTIME [bt, et]`` / ``NONSEQUENCED VALIDTIME``) parsed in
front of them.  The *conventional* executor refuses to run a statement
whose modifier is set; only the stratum consumes modifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Optional, Sequence, Union

from repro.sqlengine.types import SqlType

# ---------------------------------------------------------------------------
# temporal statement modifier (syntax only; semantics live in repro.temporal)
# ---------------------------------------------------------------------------


class TemporalFlavor(Enum):
    SEQUENCED = "SEQUENCED"
    NONSEQUENCED = "NONSEQUENCED"


@dataclass(frozen=True)
class TemporalModifier:
    """``[NONSEQUENCED] VALIDTIME|TRANSACTIONTIME [(bt, et)]`` prefix.

    ``dimension`` is ``"VALID"`` or ``"TRANSACTION"``; the paper focuses
    on valid time and notes everything applies to transaction time too
    (§III) — the stratum supports both.
    """

    flavor: TemporalFlavor
    begin: Optional["Expression"] = None
    end: Optional["Expression"] = None
    dimension: str = "VALID"

    @property
    def keyword(self) -> str:
        return "VALIDTIME" if self.dimension == "VALID" else "TRANSACTIONTIME"

    def to_sql(self) -> str:
        if self.flavor is TemporalFlavor.NONSEQUENCED:
            return f"NONSEQUENCED {self.keyword}"
        if self.begin is not None:
            return f"{self.keyword} [{self.begin.to_sql()}, {self.end.to_sql()}]"
        return self.keyword


class Node:
    """Base class for all AST nodes."""

    def to_sql(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError(type(self).__name__)

    def copy(self, **changes: Any) -> "Node":
        """Shallow dataclass copy with field overrides."""
        return replace(self, **changes)  # type: ignore[type-var]

    def __str__(self) -> str:
        return self.to_sql()


def _indent(text: str, level: int) -> str:
    pad = "  " * level
    return "\n".join(pad + line if line else line for line in text.split("\n"))


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    pass


@dataclass
class Literal(Expression):
    """A literal value (int, float, str, bool, Date, or Null)."""

    value: Any

    def to_sql(self) -> str:
        from repro.sqlengine.values import Date, Null

        value = self.value
        if value is Null:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(value, Date):
            return f"DATE '{value.to_iso()}'"
        return str(value)


@dataclass
class Name(Expression):
    """A possibly-qualified name: a column reference or PSM variable.

    ``qualifier`` is the table name or alias (None for bare names).  The
    executor resolves bare names against the row environment first, then
    the enclosing routine frame's variables.
    """

    qualifier: Optional[str]
    name: str

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    @property
    def key(self) -> tuple:
        return (
            self.qualifier.lower() if self.qualifier else None,
            self.name.lower(),
        )


# operator precedence levels for rendering (higher binds tighter);
# predicates (BETWEEN/IN/LIKE/IS NULL) sit with the comparisons
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_COMPARISON = 4
_PREC_ADDITIVE = 5
_PREC_MULTIPLICATIVE = 6
_PREC_UNARY = 7
_PREC_PRIMARY = 9

_BINARY_PRECEDENCE = {
    "OR": _PREC_OR,
    "AND": _PREC_AND,
    "=": _PREC_COMPARISON, "<>": _PREC_COMPARISON, "<": _PREC_COMPARISON,
    "<=": _PREC_COMPARISON, ">": _PREC_COMPARISON, ">=": _PREC_COMPARISON,
    "+": _PREC_ADDITIVE, "-": _PREC_ADDITIVE, "||": _PREC_ADDITIVE,
    "*": _PREC_MULTIPLICATIVE, "/": _PREC_MULTIPLICATIVE,
}


def _precedence(expr: "Expression") -> int:
    if isinstance(expr, BinaryOp):
        return _BINARY_PRECEDENCE[expr.op]
    if isinstance(expr, UnaryOp):
        return _PREC_NOT if expr.op == "NOT" else _PREC_UNARY
    if isinstance(
        expr,
        (BetweenPredicate, InPredicate, LikePredicate, IsNullPredicate,
         ExistsPredicate),
    ):
        return _PREC_COMPARISON
    return _PREC_PRIMARY


@dataclass
class BinaryOp(Expression):
    """Arithmetic (+ - * /), comparison (= <> < <= > >=), logic (AND OR),
    or string concatenation (||).

    Rendering is precedence-aware: operands that bind looser than this
    operator (or equally, on the non-associative side) are parenthesized
    so the emitted SQL reparses to the same expression — the guarantee
    the stratum's source-to-source output depends on.
    """

    op: str
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        own = _BINARY_PRECEDENCE[self.op]
        left_sql = self.left.to_sql()
        if _precedence(self.left) < own or (
            _precedence(self.left) == own and own == _PREC_COMPARISON
        ):
            left_sql = f"({left_sql})"
        right_sql = self.right.to_sql()
        right_prec = _precedence(self.right)
        if right_prec < own or (
            right_prec == own
            and (own == _PREC_COMPARISON or self.op in ("-", "/"))
        ):
            right_sql = f"({right_sql})"
        return f"{left_sql} {self.op} {right_sql}"


@dataclass
class UnaryOp(Expression):
    """Unary minus / plus / NOT."""

    op: str
    operand: Expression

    def to_sql(self) -> str:
        inner = self.operand.to_sql()
        if self.op == "NOT":
            # parenthesize AND/OR operands (NOT binds tighter); leave
            # comparisons and primaries bare so rendering is a fixed
            # point under reparsing
            if _precedence(self.operand) < _PREC_NOT:
                return f"NOT ({inner})"
            return f"NOT {inner}"
        if _precedence(self.operand) < _PREC_UNARY or inner.startswith("-"):
            # the startswith guard keeps "-(-1)" from lexing as a comment
            return f"{self.op}({inner})"
        return f"{self.op}{inner}"


@dataclass
class FunctionCall(Expression):
    """A call to a built-in, aggregate, or user-defined function."""

    name: str
    args: list[Expression]
    distinct: bool = False
    star: bool = False  # COUNT(*)

    def to_sql(self) -> str:
        if self.name.upper() in ("CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP"):
            return self.name.upper()
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass
class Cast(Expression):
    expr: Expression
    target: SqlType

    def to_sql(self) -> str:
        return f"CAST({self.expr.to_sql()} AS {self.target.to_sql()})"


@dataclass
class CaseExpr(Expression):
    """CASE [operand] WHEN ... THEN ... [ELSE ...] END (expression form)."""

    operand: Optional[Expression]
    whens: list[tuple[Expression, Expression]]
    else_expr: Optional[Expression]

    def to_sql(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.to_sql())
        for when, then in self.whens:
            parts.append(f"WHEN {when.to_sql()} THEN {then.to_sql()}")
        if self.else_expr is not None:
            parts.append(f"ELSE {self.else_expr.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass
class IsNullPredicate(Expression):
    expr: Expression
    negated: bool = False

    def to_sql(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.expr.to_sql()} {tail}"


@dataclass
class BetweenPredicate(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"{self.expr.to_sql()} {op} {self.low.to_sql()}"
            f" AND {self.high.to_sql()}"
        )


@dataclass
class InPredicate(Expression):
    """IN with either a value list or a subquery."""

    expr: Expression
    items: Optional[list[Expression]] = None
    subquery: Optional["Select"] = None
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        if self.subquery is not None:
            return f"{self.expr.to_sql()} {op} ({self.subquery.to_sql()})"
        inner = ", ".join(i.to_sql() for i in (self.items or []))
        return f"{self.expr.to_sql()} {op} ({inner})"


@dataclass
class ExistsPredicate(Expression):
    subquery: "Select"
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{op} ({self.subquery.to_sql()})"


@dataclass
class LikePredicate(Expression):
    expr: Expression
    pattern: Expression
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.expr.to_sql()} {op} {self.pattern.to_sql()}"


@dataclass
class ScalarSubquery(Expression):
    """A parenthesised SELECT used as a value (must yield <= 1 row)."""

    select: "Select"

    def to_sql(self) -> str:
        return f"({self.select.to_sql()})"


@dataclass
class Parenthesized(Expression):
    """Explicit grouping, preserved so rendered SQL stays unambiguous."""

    expr: Expression

    def to_sql(self) -> str:
        return f"({self.expr.to_sql()})"


# ---------------------------------------------------------------------------
# query structure
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One entry of a select list; ``expr is None`` means ``*``/``t.*``."""

    expr: Optional[Expression]
    alias: Optional[str] = None
    star_qualifier: Optional[str] = None

    @property
    def is_star(self) -> bool:
        return self.expr is None

    def to_sql(self) -> str:
        if self.is_star:
            return f"{self.star_qualifier}.*" if self.star_qualifier else "*"
        text = self.expr.to_sql()
        if self.alias:
            text += f" AS {self.alias}"
        return text


class FromItem(Node):
    alias: Optional[str]


@dataclass
class TableRef(FromItem):
    name: str
    alias: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(FromItem):
    select: "Select"
    alias: str

    def to_sql(self) -> str:
        return f"({self.select.to_sql()}) AS {self.alias}"


@dataclass
class TableFunctionRef(FromItem):
    """``TABLE(f(args)) AS alias`` — a table-valued function in FROM.

    Arguments may reference columns of tables listed earlier in the same
    FROM clause (lateral correlation), which is how DB2 lets PERST join
    a query with a routine's returned temporal table.
    """

    call: FunctionCall
    alias: str

    def to_sql(self) -> str:
        return f"TABLE({self.call.to_sql()}) AS {self.alias}"


@dataclass
class Join(FromItem):
    left: FromItem
    right: FromItem
    kind: str  # INNER, LEFT, CROSS
    condition: Optional[Expression] = None
    alias: Optional[str] = None

    def to_sql(self) -> str:
        text = f"{self.left.to_sql()} {self.kind} JOIN {self.right.to_sql()}"
        if self.condition is not None:
            text += f" ON {self.condition.to_sql()}"
        return text


@dataclass
class OrderItem(Node):
    expr: Expression
    descending: bool = False

    def to_sql(self) -> str:
        return self.expr.to_sql() + (" DESC" if self.descending else "")


class Statement(Node):
    """Base class for executable statements."""

    modifier: Optional[TemporalModifier] = None


@dataclass
class Select(Statement):
    items: list[SelectItem] = field(default_factory=list)
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    distinct: bool = False
    limit: Optional[int] = None
    set_op: Optional[str] = None  # UNION / UNION ALL / EXCEPT / INTERSECT
    set_rhs: Optional["Select"] = None
    modifier: Optional[TemporalModifier] = None

    def to_sql(self) -> str:
        parts = []
        if self.modifier is not None:
            parts.append(self.modifier.to_sql())
        parts.append("SELECT")
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.to_sql() for i in self.items))
        if self.from_items:
            parts.append("FROM " + ", ".join(f.to_sql() for f in self.from_items))
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.to_sql() for g in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        text = " ".join(parts)
        if self.set_op:
            text += f" {self.set_op} {self.set_rhs.to_sql()}"
        if self.order_by:
            text += " ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


@dataclass
class Insert(Statement):
    table: str
    columns: Optional[list[str]] = None
    values: Optional[list[list[Expression]]] = None
    select: Optional[Select] = None
    modifier: Optional[TemporalModifier] = None

    def to_sql(self) -> str:
        prefix = f"{self.modifier.to_sql()} " if self.modifier else ""
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        if self.select is not None:
            return f"{prefix}INSERT INTO {self.table}{cols} {self.select.to_sql()}"
        rows = ", ".join(
            "(" + ", ".join(e.to_sql() for e in row) + ")" for row in self.values or []
        )
        return f"{prefix}INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None
    alias: Optional[str] = None
    modifier: Optional[TemporalModifier] = None

    def to_sql(self) -> str:
        prefix = f"{self.modifier.to_sql()} " if self.modifier else ""
        target = f"{self.table} {self.alias}" if self.alias else self.table
        sets = ", ".join(f"{c} = {e.to_sql()}" for c, e in self.assignments)
        text = f"{prefix}UPDATE {target} SET {sets}"
        if self.where is not None:
            text += f" WHERE {self.where.to_sql()}"
        return text


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expression] = None
    alias: Optional[str] = None
    modifier: Optional[TemporalModifier] = None

    def to_sql(self) -> str:
        prefix = f"{self.modifier.to_sql()} " if self.modifier else ""
        target = f"{self.table} {self.alias}" if self.alias else self.table
        text = f"{prefix}DELETE FROM {target}"
        if self.where is not None:
            text += f" WHERE {self.where.to_sql()}"
        return text


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------


@dataclass
class ColumnDef(Node):
    name: str
    type: SqlType
    primary_key: bool = False
    not_null: bool = False

    def to_sql(self) -> str:
        text = f"{self.name} {self.type.to_sql()}"
        if self.not_null:
            text += " NOT NULL"
        if self.primary_key:
            text += " PRIMARY KEY"
        return text


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    temporary: bool = False
    as_select: Optional[Select] = None
    primary_key: Optional[list[str]] = None

    def to_sql(self) -> str:
        kind = "TEMPORARY TABLE" if self.temporary else "TABLE"
        if self.as_select is not None:
            return f"CREATE {kind} {self.name} AS ({self.as_select.to_sql()})"
        cols = ", ".join(c.to_sql() for c in self.columns)
        if self.primary_key:
            cols += f", PRIMARY KEY ({', '.join(self.primary_key)})"
        return f"CREATE {kind} {self.name} ({cols})"


@dataclass
class AlterTable(Statement):
    """``ALTER TABLE name ADD VALIDTIME`` — temporal DDL.

    Parsed here so scripts can mix temporal DDL with ordinary SQL; only
    the stratum executes it (the conventional executor refuses).
    """

    name: str
    action: str = "ADD VALIDTIME"

    def to_sql(self) -> str:
        return f"ALTER TABLE {self.name} {self.action}"


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False

    def to_sql(self) -> str:
        return f"DROP TABLE {self.name}"


@dataclass
class CreateView(Statement):
    name: str
    select: Select = None

    def to_sql(self) -> str:
        return f"CREATE VIEW {self.name} AS ({self.select.to_sql()})"


@dataclass
class DropView(Statement):
    name: str

    def to_sql(self) -> str:
        return f"DROP VIEW {self.name}"


@dataclass
class TransactionStatement(Statement):
    """Transaction control: BEGIN / COMMIT / ROLLBACK / SAVEPOINT forms.

    ``action`` is one of ``"BEGIN"``, ``"COMMIT"``, ``"ROLLBACK"``,
    ``"SAVEPOINT"``, ``"ROLLBACK TO SAVEPOINT"``, ``"RELEASE
    SAVEPOINT"``; the savepoint forms carry ``name``.  Executed by the
    database's :class:`~repro.sqlengine.txn.TransactionManager`, never
    by the statement executor.
    """

    action: str
    name: Optional[str] = None

    def to_sql(self) -> str:
        if self.action == "BEGIN":
            return "START TRANSACTION"
        if self.name is not None:
            return f"{self.action} {self.name}"
        return self.action


@dataclass
class ExplainStatement(Statement):
    """``EXPLAIN [ANALYZE] <statement>``.

    Wraps any other statement (including temporally-modified ones, so
    ``EXPLAIN VALIDTIME SELECT ...`` parses).  Rendered by
    :mod:`repro.obs.explain`; with ``analyze`` the wrapped statement is
    actually executed under tracing and measured facts are appended.
    """

    statement: "Statement" = None  # type: ignore[assignment]
    analyze: bool = False

    def to_sql(self) -> str:
        keyword = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{keyword} {self.statement.to_sql()}"


# ---------------------------------------------------------------------------
# PSM routines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowField:
    name: str
    type: SqlType

    def to_sql(self) -> str:
        return f"{self.name} {self.type.to_sql()}"


@dataclass(frozen=True)
class RowArrayType:
    """``ROW(f1 t1, ..., fn tn) ARRAY`` — a table-valued return type.

    PERST rewrites every sequenced function to return one of these: the
    routine's time-varying result as an explicit temporal table.
    """

    fields: tuple[RowField, ...]

    def to_sql(self) -> str:
        inner = ", ".join(f.to_sql() for f in self.fields)
        return f"ROW({inner}) ARRAY"

    @property
    def column_names(self) -> list[str]:
        return [f.name for f in self.fields]


ReturnType = Union[SqlType, RowArrayType]


@dataclass
class ParamDef(Node):
    name: str
    type: SqlType
    mode: str = "IN"  # IN / OUT / INOUT

    def to_sql(self) -> str:
        if self.mode != "IN":
            return f"{self.mode} {self.name} {self.type.to_sql()}"
        return f"{self.name} {self.type.to_sql()}"


@dataclass
class CreateFunction(Statement):
    name: str
    params: list[ParamDef] = field(default_factory=list)
    returns: ReturnType = None
    body: "PsmStatement" = None
    reads_sql_data: bool = True
    deterministic: bool = False

    def to_sql(self) -> str:
        params = ", ".join(p.to_sql() for p in self.params)
        lines = [f"CREATE FUNCTION {self.name} ({params})"]
        lines.append(f"RETURNS {self.returns.to_sql()}")
        if self.reads_sql_data:
            lines.append("READS SQL DATA")
        lines.append("LANGUAGE SQL")
        lines.append(self.body.to_sql())
        return "\n".join(lines)


@dataclass
class CreateProcedure(Statement):
    name: str
    params: list[ParamDef] = field(default_factory=list)
    body: "PsmStatement" = None

    def to_sql(self) -> str:
        params = ", ".join(p.to_sql() for p in self.params)
        return f"CREATE PROCEDURE {self.name} ({params})\nLANGUAGE SQL\n{self.body.to_sql()}"


@dataclass
class DropRoutine(Statement):
    kind: str  # FUNCTION or PROCEDURE
    name: str

    def to_sql(self) -> str:
        return f"DROP {self.kind} {self.name}"


# ---------------------------------------------------------------------------
# PSM statements
# ---------------------------------------------------------------------------


class PsmStatement(Statement):
    pass


@dataclass
class DeclareVariable(PsmStatement):
    names: list[str]
    type: SqlType = None
    default: Optional[Expression] = None
    # PERST rewrites scalar variables into temporal variable tables; the
    # declaration then carries the row-array shape instead of a scalar type.
    array_type: Optional[RowArrayType] = None

    def to_sql(self) -> str:
        names = ", ".join(self.names)
        type_sql = (
            self.array_type.to_sql() if self.array_type is not None else self.type.to_sql()
        )
        text = f"DECLARE {names} {type_sql}"
        if self.default is not None:
            text += f" DEFAULT {self.default.to_sql()}"
        return text + ";"


@dataclass
class DeclareCursor(PsmStatement):
    name: str
    select: Select = None

    def to_sql(self) -> str:
        return f"DECLARE {self.name} CURSOR FOR {self.select.to_sql()};"


@dataclass
class DeclareHandler(PsmStatement):
    kind: str  # CONTINUE or EXIT
    condition: str  # NOT FOUND, SQLEXCEPTION
    action: "PsmStatement" = None

    def to_sql(self) -> str:
        return (
            f"DECLARE {self.kind} HANDLER FOR {self.condition}"
            f" {self.action.to_sql()};"
        )


@dataclass
class Compound(PsmStatement):
    """BEGIN [ATOMIC] ... END, optionally labelled."""

    declarations: list[PsmStatement] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    label: Optional[str] = None
    atomic: bool = False

    def to_sql(self) -> str:
        head = f"{self.label}: BEGIN" if self.label else "BEGIN"
        if self.atomic:
            head += " ATOMIC"
        body: list[str] = []
        for decl in self.declarations:
            body.append(_indent(decl.to_sql(), 1))
        for stmt in self.statements:
            text = stmt.to_sql()
            if not text.endswith(";"):
                text += ";"
            body.append(_indent(text, 1))
        tail = f"END {self.label}" if self.label else "END"
        return "\n".join([head] + body + [tail])


@dataclass
class SetStatement(PsmStatement):
    """``SET v = expr`` or row form ``SET (a, b) = (SELECT ...)``."""

    targets: list[str]
    value: Expression = None

    def to_sql(self) -> str:
        if len(self.targets) == 1:
            return f"SET {self.targets[0]} = {self.value.to_sql()}"
        return f"SET ({', '.join(self.targets)}) = {self.value.to_sql()}"


@dataclass
class IfStatement(PsmStatement):
    branches: list[tuple[Expression, list[Statement]]] = field(default_factory=list)
    else_branch: Optional[list[Statement]] = None

    def to_sql(self) -> str:
        lines: list[str] = []
        for i, (cond, stmts) in enumerate(self.branches):
            word = "IF" if i == 0 else "ELSEIF"
            lines.append(f"{word} {cond.to_sql()} THEN")
            lines.extend(_indent(_semi(s), 1) for s in stmts)
        if self.else_branch is not None:
            lines.append("ELSE")
            lines.extend(_indent(_semi(s), 1) for s in self.else_branch)
        lines.append("END IF")
        return "\n".join(lines)


@dataclass
class CaseStatement(PsmStatement):
    operand: Optional[Expression] = None
    whens: list[tuple[Expression, list[Statement]]] = field(default_factory=list)
    else_branch: Optional[list[Statement]] = None

    def to_sql(self) -> str:
        head = "CASE" if self.operand is None else f"CASE {self.operand.to_sql()}"
        lines = [head]
        for when, stmts in self.whens:
            lines.append(_indent(f"WHEN {when.to_sql()} THEN", 1))
            lines.extend(_indent(_semi(s), 2) for s in stmts)
        if self.else_branch is not None:
            lines.append(_indent("ELSE", 1))
            lines.extend(_indent(_semi(s), 2) for s in self.else_branch)
        lines.append("END CASE")
        return "\n".join(lines)


@dataclass
class WhileStatement(PsmStatement):
    condition: Expression = None
    body: list[Statement] = field(default_factory=list)
    label: Optional[str] = None

    def to_sql(self) -> str:
        head = f"{self.label}: " if self.label else ""
        lines = [f"{head}WHILE {self.condition.to_sql()} DO"]
        lines.extend(_indent(_semi(s), 1) for s in self.body)
        lines.append("END WHILE" + (f" {self.label}" if self.label else ""))
        return "\n".join(lines)


@dataclass
class RepeatStatement(PsmStatement):
    body: list[Statement] = field(default_factory=list)
    until: Expression = None
    label: Optional[str] = None

    def to_sql(self) -> str:
        head = f"{self.label}: " if self.label else ""
        lines = [f"{head}REPEAT"]
        lines.extend(_indent(_semi(s), 1) for s in self.body)
        lines.append(f"UNTIL {self.until.to_sql()}")
        lines.append("END REPEAT" + (f" {self.label}" if self.label else ""))
        return "\n".join(lines)


@dataclass
class ForStatement(PsmStatement):
    """``[label:] FOR var AS [cursor CURSOR FOR] select DO ... END FOR``."""

    loop_var: str = ""
    select: Select = None
    body: list[Statement] = field(default_factory=list)
    cursor_name: Optional[str] = None
    label: Optional[str] = None
    # set on PERST's loops over constant periods only (no syntax)
    split: Optional["PeriodSplit"] = None

    def to_sql(self) -> str:
        head = f"{self.label}: " if self.label else ""
        cursor = f"{self.cursor_name} CURSOR FOR " if self.cursor_name else ""
        split = f" {self.split.to_sql()}" if self.split is not None else ""
        lines = [f"{head}FOR {self.loop_var} AS {cursor}{self.select.to_sql()}{split} DO"]
        lines.extend(_indent(_semi(s), 1) for s in self.body)
        lines.append("END FOR" + (f" {self.label}" if self.label else ""))
        return "\n".join(lines)


@dataclass
class PeriodSplit(Node):
    """Which periods PERST's per-period loop runs (built by the transformer
    only: no syntax, rendered as a comment).  ``unmerged`` names why it
    runs every period it selects; else adjacent periods merge across each
    point no row of the ``split_at`` selects holds (the bounds of what the
    body reads, named in ``sources``): nothing it reads changes there."""

    split_at: list["Select"] = field(default_factory=list)
    sources: list[str] = field(default_factory=list)
    unmerged: Optional[str] = None

    def to_sql(self) -> str:
        if self.unmerged is not None:
            return f"/* every period: {self.unmerged} */"
        return "/* merged but at the bounds of: " + ", ".join(
            f"{source} ({select.to_sql()})"
            for source, select in zip(self.sources, self.split_at)
        ) + " */"

    @staticmethod
    def merge(periods: list, splits: list) -> list[list]:
        """``periods`` in begin order, each joined to the one before it
        where no row in ``splits`` (one result per ``split_at`` select)
        holds their meeting point."""
        bounds = {point for rows in splits for row in rows for point in row}
        merged: list[list] = []
        for begin, end in sorted(periods, key=lambda period: period[0]):
            if merged and merged[-1][1] == begin and begin not in bounds:
                merged[-1][1] = end
            else:
                merged.append([begin, end])
        return merged


@dataclass
class LoopStatement(PsmStatement):
    body: list[Statement] = field(default_factory=list)
    label: Optional[str] = None

    def to_sql(self) -> str:
        head = f"{self.label}: " if self.label else ""
        lines = [f"{head}LOOP"]
        lines.extend(_indent(_semi(s), 1) for s in self.body)
        lines.append("END LOOP" + (f" {self.label}" if self.label else ""))
        return "\n".join(lines)


@dataclass
class LeaveStatement(PsmStatement):
    label: str

    def to_sql(self) -> str:
        return f"LEAVE {self.label}"


@dataclass
class SignalStatement(PsmStatement):
    """``SIGNAL SQLSTATE 'xxxxx' [SET MESSAGE_TEXT = '...']``.

    Raises a :class:`~repro.sqlengine.errors.SignalError` carrying the
    state, catchable by a matching SQLSTATE handler or a generic
    SQLEXCEPTION handler.  Valid both inside routine bodies and as a
    top-level statement.
    """

    sqlstate: str
    message: Optional[str] = None

    def to_sql(self) -> str:
        sql = f"SIGNAL SQLSTATE '{self.sqlstate}'"
        if self.message is not None:
            escaped = self.message.replace("'", "''")
            sql += f" SET MESSAGE_TEXT = '{escaped}'"
        return sql


@dataclass
class IterateStatement(PsmStatement):
    label: str

    def to_sql(self) -> str:
        return f"ITERATE {self.label}"


@dataclass
class ReturnStatement(PsmStatement):
    value: Optional[Expression] = None

    def to_sql(self) -> str:
        if self.value is None:
            return "RETURN"
        return f"RETURN {self.value.to_sql()}"


@dataclass
class CallStatement(PsmStatement):
    name: str
    args: list[Expression] = field(default_factory=list)
    modifier: Optional[TemporalModifier] = None

    def to_sql(self) -> str:
        prefix = f"{self.modifier.to_sql()} " if self.modifier else ""
        inner = ", ".join(a.to_sql() for a in self.args)
        return f"{prefix}CALL {self.name}({inner})"


@dataclass
class OpenCursor(PsmStatement):
    name: str

    def to_sql(self) -> str:
        return f"OPEN {self.name}"


@dataclass
class FetchCursor(PsmStatement):
    name: str
    targets: list[str] = field(default_factory=list)

    def to_sql(self) -> str:
        return f"FETCH {self.name} INTO {', '.join(self.targets)}"


@dataclass
class CloseCursor(PsmStatement):
    name: str

    def to_sql(self) -> str:
        return f"CLOSE {self.name}"


@dataclass
class SelectInto(PsmStatement):
    """``SELECT ... INTO v1, v2 FROM ...`` inside a routine body."""

    select: Select = None
    targets: list[str] = field(default_factory=list)

    def to_sql(self) -> str:
        base = self.select.to_sql()
        # inject INTO after the select list for display purposes
        items = ", ".join(i.to_sql() for i in self.select.items)
        head = "SELECT DISTINCT " if self.select.distinct else "SELECT "
        rest = base.split(" FROM ", 1)
        into = f" INTO {', '.join(self.targets)}"
        if len(rest) == 2:
            return f"{head}{items}{into} FROM {rest[1]}"
        return f"{head}{items}{into}"


def _semi(stmt: Statement) -> str:
    text = stmt.to_sql()
    return text if text.endswith(";") else text + ";"


# ---------------------------------------------------------------------------
# generic child-walking (used by static analysis)
# ---------------------------------------------------------------------------


def iter_children(node: Any):
    """Yield every Node reachable one level below ``node``.

    Walks dataclass fields, lists and tuples; useful for generic traversal
    in the temporal analysis passes.
    """
    if isinstance(node, Node):
        candidates = [getattr(node, f.name) for f in fields(node)]
    elif isinstance(node, (list, tuple)):
        candidates = list(node)
    else:
        return
    for value in candidates:
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for sub in value:
                if isinstance(sub, Node):
                    yield sub
                elif isinstance(sub, (list, tuple)):
                    yield from iter_children(sub)


def walk(node: Node):
    """Depth-first pre-order walk over all Nodes under ``node``."""
    yield node
    for child in iter_children(node):
        yield from walk(child)

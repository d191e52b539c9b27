"""Recursive-descent parser for SQL + PSM.

The grammar is the SQL subset plus PSM control statements inventoried in
DESIGN.md §3.1, and the optional temporal statement modifier prefix
(``VALIDTIME [bt, et]`` / ``NONSEQUENCED VALIDTIME``) from the paper's
§IV-B BNF, which parses onto ``Statement.modifier`` for the stratum to
consume.

Entry points: :func:`parse_statement`, :func:`parse_script`,
:func:`parse_expression`.
"""

from __future__ import annotations

from typing import Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine import types as sqltypes
from repro.sqlengine.errors import ParseError, StarArgumentError
from repro.sqlengine.lexer import tokenize
from repro.sqlengine.tokens import Token, TokenKind
from repro.sqlengine.values import Date, Null

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_STATEMENT_KEYWORDS = frozenset(
    {"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
     "CALL", "SET", "BEGIN", "DECLARE", "IF", "CASE", "WHILE", "REPEAT",
     "FOR", "LOOP", "LEAVE", "ITERATE", "RETURN", "OPEN", "FETCH", "CLOSE",
     "VALIDTIME", "NONSEQUENCED"}
)


def parse_statement(sql: str) -> ast.Statement:
    """Parse exactly one statement (a trailing semicolon is allowed)."""
    parser = Parser(sql)
    stmt = parser.statement()
    parser.accept_punct(";")
    parser.expect_eof()
    return stmt


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a semicolon-separated sequence of statements."""
    parser = Parser(sql)
    statements: list[ast.Statement] = []
    while not parser.at_eof():
        statements.append(parser.statement())
        if not parser.accept_punct(";"):
            break
    parser.expect_eof()
    return statements


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone expression (useful in tests and the stratum)."""
    parser = Parser(sql)
    expr = parser.expression()
    parser.expect_eof()
    return expr


class Parser:
    """One-pass recursive-descent parser over a token list."""

    def __init__(self, sql: str) -> None:
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token utilities ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().kind is TokenKind.EOF

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(f"{message}; found {token} at line {token.line}")

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if self.peek().is_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, *words: str) -> Token:
        token = self.accept_keyword(*words)
        if token is None:
            raise self.error(f"expected {' or '.join(words)}")
        return token

    def accept_punct(self, punct: str) -> bool:
        if self.peek().matches(TokenKind.PUNCT, punct):
            self.advance()
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        if not self.accept_punct(punct):
            raise self.error(f"expected {punct!r}")

    def accept_operator(self, op: str) -> bool:
        if self.peek().matches(TokenKind.OPERATOR, op):
            self.advance()
            return True
        return False

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            self.advance()
            return token.value
        # allow a few soft keywords as identifiers (e.g. a column DATA)
        if token.kind is TokenKind.KEYWORD and token.value in (
            "DATA", "KEY", "DATE", "INDEX", "FOUND", "CONDITION", "SQL",
            "LEFT", "RIGHT", "DAY",
        ):
            self.advance()
            return token.value.lower()
        raise self.error("expected identifier")

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    # -- statements ---------------------------------------------------------

    def statement(self) -> ast.Statement:
        if self.accept_keyword("EXPLAIN"):
            analyze = bool(self.accept_keyword("ANALYZE"))
            # EXPLAIN wraps a whole statement, temporal modifier and all
            # (EXPLAIN VALIDTIME SELECT ... / EXPLAIN ANALYZE CALL ...)
            return ast.ExplainStatement(
                statement=self.statement(), analyze=analyze
            )
        modifier = self.temporal_modifier()
        token = self.peek()
        if token.kind is TokenKind.IDENT and self.peek(1).matches(
            TokenKind.OPERATOR, ":"
        ):
            # a labelled loop (lbl: WHILE / FOR / REPEAT / LOOP)
            stmt = self.psm_statement()
            if modifier is not None:
                stmt.modifier = modifier
            return stmt
        if token.kind is not TokenKind.KEYWORD:
            raise self.error("expected a statement")
        word = token.value
        if word == "SELECT":
            stmt = self.select_statement()
        elif word == "INSERT":
            stmt = self.insert_statement()
        elif word == "UPDATE":
            stmt = self.update_statement()
        elif word == "DELETE":
            stmt = self.delete_statement()
        elif word == "CREATE":
            stmt = self.create_statement()
        elif word == "DROP":
            stmt = self.drop_statement()
        elif word == "ALTER":
            stmt = self.alter_statement()
        elif word == "CALL":
            stmt = self.call_statement()
        elif word in ("START", "COMMIT", "ROLLBACK", "SAVEPOINT", "RELEASE"):
            stmt = self.transaction_statement()
        elif word == "BEGIN" and self._begin_is_transaction():
            stmt = self.transaction_statement()
        else:
            stmt = self.psm_statement()
        if modifier is not None:
            if not hasattr(stmt, "modifier"):
                raise self.error("temporal modifier not allowed here")
            stmt.modifier = modifier
        return stmt

    def _begin_is_transaction(self) -> bool:
        """Disambiguate ``BEGIN`` (transaction) from ``BEGIN ... END``
        (PSM compound): transactional only when followed by a statement
        boundary, ``WORK``, or ``TRANSACTION``."""
        nxt = self.peek(1)
        if nxt.kind is TokenKind.EOF or nxt.matches(TokenKind.PUNCT, ";"):
            return True
        if nxt.is_keyword("TRANSACTION"):
            return True
        return nxt.kind is TokenKind.IDENT and nxt.value.upper() == "WORK"

    def _accept_soft_ident(self, word: str) -> bool:
        """Consume a non-reserved word (e.g. WORK, TO) if present."""
        token = self.peek()
        if token.kind is TokenKind.IDENT and token.value.upper() == word:
            self.advance()
            return True
        return False

    def transaction_statement(self) -> ast.TransactionStatement:
        word = self.advance().value
        if word == "START":
            self.expect_keyword("TRANSACTION")
            return ast.TransactionStatement(action="BEGIN")
        if word == "BEGIN":
            if not self.accept_keyword("TRANSACTION"):
                self._accept_soft_ident("WORK")
            return ast.TransactionStatement(action="BEGIN")
        if word == "COMMIT":
            self._accept_soft_ident("WORK")
            return ast.TransactionStatement(action="COMMIT")
        if word == "SAVEPOINT":
            return ast.TransactionStatement(
                action="SAVEPOINT", name=self.expect_ident()
            )
        if word == "RELEASE":
            self.expect_keyword("SAVEPOINT")
            return ast.TransactionStatement(
                action="RELEASE SAVEPOINT", name=self.expect_ident()
            )
        # ROLLBACK [WORK] [TO [SAVEPOINT] name]
        self._accept_soft_ident("WORK")
        if self._accept_soft_ident("TO"):
            self.accept_keyword("SAVEPOINT")
            return ast.TransactionStatement(
                action="ROLLBACK TO SAVEPOINT", name=self.expect_ident()
            )
        return ast.TransactionStatement(action="ROLLBACK")

    def signal_statement(self) -> ast.SignalStatement:
        self.expect_keyword("SIGNAL")
        self.expect_keyword("SQLSTATE")
        token = self.peek()
        if token.kind is not TokenKind.STRING:
            raise self.error("expected a quoted SQLSTATE value")
        self.advance()
        message = None
        if self.accept_keyword("SET"):
            if self.expect_ident().upper() != "MESSAGE_TEXT":
                raise self.error("expected MESSAGE_TEXT")
            if not self.accept_operator("="):
                raise self.error("expected = after MESSAGE_TEXT")
            mtoken = self.peek()
            if mtoken.kind is not TokenKind.STRING:
                raise self.error("expected a string message")
            self.advance()
            message = mtoken.value
        return ast.SignalStatement(sqlstate=token.value, message=message)

    def temporal_modifier(self) -> Optional[ast.TemporalModifier]:
        if self.accept_keyword("NONSEQUENCED"):
            keyword = self.expect_keyword("VALIDTIME", "TRANSACTIONTIME")
            dimension = "VALID" if keyword.value == "VALIDTIME" else "TRANSACTION"
            return ast.TemporalModifier(
                ast.TemporalFlavor.NONSEQUENCED, dimension=dimension
            )
        keyword = self.accept_keyword("VALIDTIME", "TRANSACTIONTIME")
        if keyword is not None:
            dimension = "VALID" if keyword.value == "VALIDTIME" else "TRANSACTION"
            begin = end = None
            if self.accept_punct("["):
                begin = self.expression()
                self.expect_punct(",")
                end = self.expression()
                self.expect_punct("]")
            return ast.TemporalModifier(
                ast.TemporalFlavor.SEQUENCED, begin=begin, end=end,
                dimension=dimension,
            )
        return None

    # -- SELECT ---------------------------------------------------------

    def select_statement(self) -> ast.Select:
        select = self.select_core()
        tail = select
        while self.peek().is_keyword("UNION", "EXCEPT", "INTERSECT"):
            op = self.advance().value
            if self.accept_keyword("ALL"):
                op += " ALL"
            rhs = self.select_core()
            tail.set_op = op
            tail.set_rhs = rhs
            tail = rhs
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by = self.order_items()
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind is not TokenKind.NUMBER:
                raise self.error("expected number after LIMIT")
            select.limit = int(token.value)
        return select

    def select_core(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("ALL"):
            pass
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())
        from_items: list[ast.FromItem] = []
        where = having = None
        group_by: list[ast.Expression] = []
        if self.accept_keyword("FROM"):
            from_items = [self.from_item()]
            while self.accept_punct(","):
                from_items.append(self.from_item())
        if self.accept_keyword("WHERE"):
            where = self.expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = [self.expression()]
            while self.accept_punct(","):
                group_by.append(self.expression())
        if self.accept_keyword("HAVING"):
            having = self.expression()
        return ast.Select(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def select_item(self) -> ast.SelectItem:
        token = self.peek()
        if token.matches(TokenKind.OPERATOR, "*"):
            self.advance()
            return ast.SelectItem(expr=None)
        # qualified star: ident . *
        if (
            token.kind is TokenKind.IDENT
            and self.peek(1).matches(TokenKind.PUNCT, ".")
            and self.peek(2).matches(TokenKind.OPERATOR, "*")
        ):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(expr=None, star_qualifier=qualifier)
        expr = self.expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenKind.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def from_item(self) -> ast.FromItem:
        item = self.from_primary()
        while True:
            kind = None
            if self.accept_keyword("INNER"):
                kind = "INNER"
                self.expect_keyword("JOIN")
            elif self.peek().is_keyword("LEFT") and self.peek(1).is_keyword(
                "JOIN", "OUTER"
            ):
                self.advance()
                self.accept_keyword("OUTER")
                kind = "LEFT"
                self.expect_keyword("JOIN")
            elif self.peek().is_keyword("RIGHT") and self.peek(1).is_keyword(
                "JOIN", "OUTER"
            ):
                self.advance()
                self.accept_keyword("OUTER")
                kind = "RIGHT"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("CROSS"):
                kind = "CROSS"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("JOIN"):
                kind = "INNER"
            else:
                return item
            right = self.from_primary()
            condition = None
            if kind != "CROSS":
                self.expect_keyword("ON")
                condition = self.expression()
            item = ast.Join(left=item, right=right, kind=kind, condition=condition)

    def from_primary(self) -> ast.FromItem:
        if self.accept_punct("("):
            select = self.select_statement()
            self.expect_punct(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return ast.SubqueryRef(select=select, alias=alias)
        if self.accept_keyword("TABLE"):
            self.expect_punct("(")
            name = self.expect_ident()
            self.expect_punct("(")
            args = self.call_args()
            call = ast.FunctionCall(name=name, args=args)
            self.expect_punct(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return ast.TableFunctionRef(call=call, alias=alias)
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().kind is TokenKind.IDENT:
            alias = self.advance().value
        return ast.TableRef(name=name, alias=alias)

    def order_items(self) -> list[ast.OrderItem]:
        items = [self.order_item()]
        while self.accept_punct(","):
            items.append(self.order_item())
        return items

    def order_item(self) -> ast.OrderItem:
        expr = self.expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    # -- DML --------------------------------------------------------------

    def insert_statement(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        self.accept_keyword("TABLE")  # PERST emits INSERT INTO TABLE var
        table = self.expect_ident()
        columns = None
        if self.peek().matches(TokenKind.PUNCT, "(") and not self.peek(1).is_keyword(
            "SELECT", "VALIDTIME", "NONSEQUENCED"
        ):
            self.expect_punct("(")
            columns = [self.expect_ident()]
            while self.accept_punct(","):
                columns.append(self.expect_ident())
            self.expect_punct(")")
        if self.accept_keyword("VALUES"):
            rows = [self.value_row()]
            while self.accept_punct(","):
                rows.append(self.value_row())
            return ast.Insert(table=table, columns=columns, values=rows)
        wrapped = self.accept_punct("(")
        select = self.select_statement()
        if wrapped:
            self.expect_punct(")")
        return ast.Insert(table=table, columns=columns, select=select)

    def value_row(self) -> list[ast.Expression]:
        self.expect_punct("(")
        exprs = [self.expression()]
        while self.accept_punct(","):
            exprs.append(self.expression())
        self.expect_punct(")")
        return exprs

    def update_statement(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        self.accept_keyword("TABLE")
        table = self.expect_ident()
        alias = None
        if self.peek().kind is TokenKind.IDENT:
            alias = self.advance().value
        self.expect_keyword("SET")
        assignments = [self.assignment()]
        while self.accept_punct(","):
            assignments.append(self.assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        return ast.Update(table=table, alias=alias, assignments=assignments, where=where)

    def assignment(self) -> tuple[str, ast.Expression]:
        column = self.expect_ident()
        if not self.accept_operator("="):
            raise self.error("expected = in assignment")
        return column, self.expression()

    def delete_statement(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        self.accept_keyword("TABLE")  # PERST emits DELETE FROM TABLE var
        table = self.expect_ident()
        alias = None
        if self.peek().kind is TokenKind.IDENT:
            alias = self.advance().value
        where = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        return ast.Delete(table=table, alias=alias, where=where)

    # -- DDL ----------------------------------------------------------------

    def create_statement(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TEMPORARY"):
            self.expect_keyword("TABLE")
            return self.create_table(temporary=True)
        if self.accept_keyword("TABLE"):
            return self.create_table(temporary=False)
        if self.accept_keyword("VIEW"):
            name = self.expect_ident()
            self.expect_keyword("AS")
            wrapped = self.accept_punct("(")
            modifier = self.temporal_modifier()
            select = self.select_statement()
            if modifier is not None:
                select.modifier = modifier
            if wrapped:
                self.expect_punct(")")
            return ast.CreateView(name=name, select=select)
        if self.accept_keyword("FUNCTION"):
            return self.create_function()
        if self.accept_keyword("PROCEDURE"):
            return self.create_procedure()
        raise self.error("expected TABLE, VIEW, FUNCTION or PROCEDURE")

    def create_table(self, temporary: bool) -> ast.CreateTable:
        name = self.expect_ident()
        if self.accept_keyword("AS"):
            wrapped = self.accept_punct("(")
            select = self.select_statement()
            if wrapped:
                self.expect_punct(")")
            return ast.CreateTable(name=name, temporary=temporary, as_select=select)
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        primary_key: Optional[list[str]] = None
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_punct("(")
                primary_key = [self.expect_ident()]
                while self.accept_punct(","):
                    primary_key.append(self.expect_ident())
                self.expect_punct(")")
            else:
                col_name = self.expect_ident()
                col_type = self.sql_type()
                not_null = False
                pk = False
                if self.accept_keyword("NOT"):
                    self.expect_keyword("NULL")
                    not_null = True
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    pk = True
                columns.append(
                    ast.ColumnDef(name=col_name, type=col_type, primary_key=pk, not_null=not_null)
                )
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(
            name=name, columns=columns, temporary=temporary, primary_key=primary_key
        )

    def drop_statement(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            return ast.DropTable(name=self.expect_ident())
        if self.accept_keyword("TEMPORARY"):
            self.expect_keyword("TABLE")
            return ast.DropTable(name=self.expect_ident())
        if self.accept_keyword("VIEW"):
            return ast.DropView(name=self.expect_ident())
        if self.accept_keyword("FUNCTION"):
            return ast.DropRoutine(kind="FUNCTION", name=self.expect_ident())
        if self.accept_keyword("PROCEDURE"):
            return ast.DropRoutine(kind="PROCEDURE", name=self.expect_ident())
        raise self.error("expected TABLE, VIEW, FUNCTION or PROCEDURE")

    def alter_statement(self) -> ast.AlterTable:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        name = self.expect_ident()
        self.expect_keyword("ADD")
        keyword = self.expect_keyword("VALIDTIME", "TRANSACTIONTIME")
        return ast.AlterTable(name=name, action=f"ADD {keyword.value}")

    # -- routines -------------------------------------------------------

    def create_function(self) -> ast.CreateFunction:
        name = self.expect_ident()
        params = self.param_list(allow_modes=False)
        self.expect_keyword("RETURNS")
        returns = self.return_type()
        reads = False
        deterministic = False
        while True:
            if self.accept_keyword("READS"):
                self.expect_keyword("SQL")
                self.expect_keyword("DATA")
                reads = True
            elif self.accept_keyword("MODIFIES"):
                self.expect_keyword("SQL")
                self.expect_keyword("DATA")
                reads = True
            elif self.accept_keyword("CONTAINS"):
                self.expect_keyword("SQL")
            elif self.accept_keyword("LANGUAGE"):
                self.expect_keyword("SQL")
            elif self.accept_keyword("DETERMINISTIC"):
                deterministic = True
            else:
                break
        body = self.psm_statement()
        return ast.CreateFunction(
            name=name,
            params=params,
            returns=returns,
            body=body,
            reads_sql_data=reads,
            deterministic=deterministic,
        )

    def create_procedure(self) -> ast.CreateProcedure:
        name = self.expect_ident()
        params = self.param_list(allow_modes=True)
        while self.accept_keyword("LANGUAGE"):
            self.expect_keyword("SQL")
        body = self.psm_statement()
        return ast.CreateProcedure(name=name, params=params, body=body)

    def param_list(self, allow_modes: bool) -> list[ast.ParamDef]:
        self.expect_punct("(")
        params: list[ast.ParamDef] = []
        if not self.accept_punct(")"):
            while True:
                mode = "IN"
                if allow_modes and self.peek().is_keyword("IN", "OUT", "INOUT"):
                    mode = self.advance().value
                elif self.accept_keyword("IN"):
                    mode = "IN"
                pname = self.expect_ident()
                ptype = self.sql_type()
                params.append(ast.ParamDef(name=pname, type=ptype, mode=mode))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
        return params

    def return_type(self) -> ast.ReturnType:
        if self.peek().is_keyword("ROW"):
            self.advance()
            self.expect_punct("(")
            row_fields = []
            while True:
                fname = self.expect_ident()
                ftype = self.sql_type()
                row_fields.append(ast.RowField(name=fname, type=ftype))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            self.expect_keyword("ARRAY")
            return ast.RowArrayType(fields=tuple(row_fields))
        return self.sql_type()

    # -- PSM statements ---------------------------------------------------

    def psm_statement(self) -> ast.Statement:
        token = self.peek()
        label = None
        # labelled loops: ident ':' WHILE/FOR/REPEAT/LOOP
        if token.kind is TokenKind.IDENT and self.peek(1).matches(
            TokenKind.OPERATOR, ":"
        ):
            label = self.advance().value
            self.advance()
            token = self.peek()
            if not token.is_keyword("WHILE", "REPEAT", "FOR", "LOOP"):
                raise self.error("label must precede WHILE, REPEAT, FOR or LOOP")
        if token.kind is TokenKind.IDENT:
            raise self.error("expected a statement keyword")
        word = token.value
        if word == "BEGIN":
            return self.compound()
        if word == "DECLARE":
            return self.declare()
        if word == "SET":
            return self.set_statement()
        if word == "IF":
            return self.if_statement()
        if word == "CASE":
            return self.case_statement()
        if word == "WHILE":
            return self.while_statement(label)
        if word == "REPEAT":
            return self.repeat_statement(label)
        if word == "FOR":
            return self.for_statement(label)
        if word == "LOOP":
            return self.loop_statement(label)
        if word == "LEAVE":
            self.advance()
            return ast.LeaveStatement(label=self.expect_ident())
        if word == "ITERATE":
            self.advance()
            return ast.IterateStatement(label=self.expect_ident())
        if word == "RETURN":
            self.advance()
            if self.peek().matches(TokenKind.PUNCT, ";") or self.at_eof():
                return ast.ReturnStatement(value=None)
            return ast.ReturnStatement(value=self.expression())
        if word == "OPEN":
            self.advance()
            return ast.OpenCursor(name=self.expect_ident())
        if word == "FETCH":
            return self.fetch_statement()
        if word == "CLOSE":
            self.advance()
            return ast.CloseCursor(name=self.expect_ident())
        if word == "CALL":
            return self.call_statement()
        if word == "SIGNAL":
            return self.signal_statement()
        if word in ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP",
                    "VALIDTIME", "NONSEQUENCED", "TRANSACTIONTIME",
                    "COMMIT", "ROLLBACK", "SAVEPOINT", "RELEASE", "START"):
            return self.statement()
        raise self.error("expected a PSM statement")

    def compound(self) -> ast.Compound:
        self.expect_keyword("BEGIN")
        atomic = bool(self.accept_keyword("ATOMIC"))
        declarations: list[ast.PsmStatement] = []
        statements: list[ast.Statement] = []
        while self.peek().is_keyword("DECLARE"):
            declarations.append(self.declare())
            self.expect_punct(";")
        while not self.peek().is_keyword("END"):
            if self.at_eof():
                raise self.error("unterminated BEGIN block")
            statements.append(self.statement_in_body())
            self.expect_punct(";")
        self.expect_keyword("END")
        # optional trailing label name (ignored at parse level)
        if self.peek().kind is TokenKind.IDENT:
            self.advance()
        return ast.Compound(
            declarations=declarations, statements=statements, atomic=atomic
        )

    def statement_in_body(self) -> ast.Statement:
        """A statement inside a routine body; SELECT may carry INTO."""
        modifier = self.temporal_modifier()
        if self.peek().is_keyword("SELECT"):
            stmt = self.select_possibly_into()
        else:
            stmt = self.statement()
        if modifier is not None:
            stmt.modifier = modifier
        return stmt

    def select_possibly_into(self) -> ast.Statement:
        """Parse SELECT, capturing an INTO clause if present."""
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())
        targets: list[str] = []
        if self.accept_keyword("INTO"):
            targets.append(self.expect_ident())
            while self.accept_punct(","):
                targets.append(self.expect_ident())
        from_items: list[ast.FromItem] = []
        where = having = None
        group_by: list[ast.Expression] = []
        if self.accept_keyword("FROM"):
            from_items = [self.from_item()]
            while self.accept_punct(","):
                from_items.append(self.from_item())
        if self.accept_keyword("WHERE"):
            where = self.expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = [self.expression()]
            while self.accept_punct(","):
                group_by.append(self.expression())
        if self.accept_keyword("HAVING"):
            having = self.expression()
        select = ast.Select(
            items=items, from_items=from_items, where=where,
            group_by=group_by, having=having, distinct=distinct,
        )
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by = self.order_items()
        if targets:
            return ast.SelectInto(select=select, targets=targets)
        return select

    def declare(self) -> ast.PsmStatement:
        self.expect_keyword("DECLARE")
        if self.peek().is_keyword("CONTINUE", "EXIT"):
            kind = self.advance().value
            self.expect_keyword("HANDLER")
            self.expect_keyword("FOR")
            condition = self.handler_condition()
            action = self.psm_statement()
            return ast.DeclareHandler(kind=kind, condition=condition, action=action)
        names = [self.expect_ident()]
        if self.accept_keyword("CURSOR"):
            self.expect_keyword("FOR")
            select = self.select_statement()
            return ast.DeclareCursor(name=names[0], select=select)
        while self.accept_punct(","):
            names.append(self.expect_ident())
        if self.peek().is_keyword("ROW"):
            self.advance()
            self.expect_punct("(")
            row_fields = []
            while True:
                fname = self.expect_ident()
                ftype = self.sql_type()
                row_fields.append(ast.RowField(name=fname, type=ftype))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            self.expect_keyword("ARRAY")
            return ast.DeclareVariable(
                names=names, type=None, array_type=ast.RowArrayType(tuple(row_fields))
            )
        var_type = self.sql_type()
        default = None
        if self.peek().is_keyword("DEFAULT") or (
            self.peek().kind is TokenKind.IDENT and self.peek().value.upper() == "DEFAULT"
        ):
            self.advance()
            default = self.expression()
        return ast.DeclareVariable(names=names, type=var_type, default=default)

    def handler_condition(self) -> str:
        if self.accept_keyword("NOT"):
            self.expect_keyword("FOUND")
            return "NOT FOUND"
        if self.accept_keyword("SQLSTATE"):
            token = self.advance()
            return f"SQLSTATE {token.value}"
        token = self.advance()
        return token.value.upper()  # SQLEXCEPTION etc. lex as IDENT

    def set_statement(self) -> ast.SetStatement:
        self.expect_keyword("SET")
        if self.accept_punct("("):
            targets = [self.expect_ident()]
            while self.accept_punct(","):
                targets.append(self.expect_ident())
            self.expect_punct(")")
        else:
            targets = [self.expect_ident()]
        if not self.accept_operator("="):
            raise self.error("expected = in SET")
        value = self.expression()
        return ast.SetStatement(targets=targets, value=value)

    def if_statement(self) -> ast.IfStatement:
        self.expect_keyword("IF")
        branches: list[tuple[ast.Expression, list[ast.Statement]]] = []
        condition = self.expression()
        self.expect_keyword("THEN")
        branches.append((condition, self.statement_list(("ELSEIF", "ELSE", "END"))))
        while self.accept_keyword("ELSEIF"):
            condition = self.expression()
            self.expect_keyword("THEN")
            branches.append((condition, self.statement_list(("ELSEIF", "ELSE", "END"))))
        else_branch = None
        if self.accept_keyword("ELSE"):
            else_branch = self.statement_list(("END",))
        self.expect_keyword("END")
        self.expect_keyword("IF")
        return ast.IfStatement(branches=branches, else_branch=else_branch)

    def case_statement(self) -> ast.CaseStatement:
        self.expect_keyword("CASE")
        operand = None
        if not self.peek().is_keyword("WHEN"):
            operand = self.expression()
        whens: list[tuple[ast.Expression, list[ast.Statement]]] = []
        while self.accept_keyword("WHEN"):
            when = self.expression()
            self.expect_keyword("THEN")
            whens.append((when, self.statement_list(("WHEN", "ELSE", "END"))))
        else_branch = None
        if self.accept_keyword("ELSE"):
            else_branch = self.statement_list(("END",))
        self.expect_keyword("END")
        self.expect_keyword("CASE")
        return ast.CaseStatement(operand=operand, whens=whens, else_branch=else_branch)

    def statement_list(self, stop_keywords: tuple[str, ...]) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while not self.peek().is_keyword(*stop_keywords):
            if self.at_eof():
                raise self.error("unterminated statement list")
            statements.append(self.statement_in_body())
            self.expect_punct(";")
        return statements

    def while_statement(self, label: Optional[str]) -> ast.WhileStatement:
        self.expect_keyword("WHILE")
        condition = self.expression()
        self.expect_keyword("DO")
        body = self.statement_list(("END",))
        self.expect_keyword("END")
        self.expect_keyword("WHILE")
        label = self.trailing_label(label)
        return ast.WhileStatement(condition=condition, body=body, label=label)

    def repeat_statement(self, label: Optional[str]) -> ast.RepeatStatement:
        self.expect_keyword("REPEAT")
        body: list[ast.Statement] = []
        while not self.peek().is_keyword("UNTIL"):
            if self.at_eof():
                raise self.error("unterminated REPEAT")
            body.append(self.statement_in_body())
            self.expect_punct(";")
        self.expect_keyword("UNTIL")
        until = self.expression()
        self.expect_keyword("END")
        self.expect_keyword("REPEAT")
        label = self.trailing_label(label)
        return ast.RepeatStatement(body=body, until=until, label=label)

    def for_statement(self, label: Optional[str]) -> ast.ForStatement:
        self.expect_keyword("FOR")
        loop_var = self.expect_ident()
        self.expect_keyword("AS")
        cursor_name = None
        checkpoint = self.pos
        maybe_cursor = None
        if self.peek().kind is TokenKind.IDENT:
            maybe_cursor = self.advance().value
            if self.accept_keyword("CURSOR"):
                self.expect_keyword("FOR")
                cursor_name = maybe_cursor
            else:
                self.pos = checkpoint
        select = self.select_statement()
        self.expect_keyword("DO")
        body = self.statement_list(("END",))
        self.expect_keyword("END")
        self.expect_keyword("FOR")
        label = self.trailing_label(label)
        return ast.ForStatement(
            loop_var=loop_var, select=select, body=body,
            cursor_name=cursor_name, label=label,
        )

    def loop_statement(self, label: Optional[str]) -> ast.LoopStatement:
        self.expect_keyword("LOOP")
        body = self.statement_list(("END",))
        self.expect_keyword("END")
        self.expect_keyword("LOOP")
        label = self.trailing_label(label)
        return ast.LoopStatement(body=body, label=label)

    def trailing_label(self, label: Optional[str]) -> Optional[str]:
        if self.peek().kind is TokenKind.IDENT and not self.peek().matches(
            TokenKind.PUNCT, ";"
        ):
            return self.advance().value
        return label

    def fetch_statement(self) -> ast.FetchCursor:
        self.expect_keyword("FETCH")
        self.accept_keyword("FROM")
        name = self.expect_ident()
        self.expect_keyword("INTO")
        targets = [self.expect_ident()]
        while self.accept_punct(","):
            targets.append(self.expect_ident())
        return ast.FetchCursor(name=name, targets=targets)

    def call_statement(self) -> ast.CallStatement:
        self.expect_keyword("CALL")
        name = self.expect_ident()
        self.expect_punct("(")
        args = self.call_args()
        return ast.CallStatement(name=name, args=args)

    def call_args(self) -> list[ast.Expression]:
        args: list[ast.Expression] = []
        if not self.accept_punct(")"):
            args.append(self.expression())
            while self.accept_punct(","):
                args.append(self.expression())
            self.expect_punct(")")
        return args

    # -- types --------------------------------------------------------------

    def sql_type(self) -> sqltypes.SqlType:
        token = self.peek()
        if not token.kind is TokenKind.KEYWORD:
            raise self.error("expected a type name")
        word = self.advance().value
        if word in ("INTEGER", "INT"):
            return sqltypes.SqlType("INTEGER")
        if word in ("SMALLINT", "BIGINT"):
            return sqltypes.SqlType(word)
        if word in ("DECIMAL", "NUMERIC"):
            precision = scale = None
            if self.accept_punct("("):
                precision = int(self.advance().value)
                if self.accept_punct(","):
                    scale = int(self.advance().value)
                self.expect_punct(")")
            return sqltypes.SqlType(word, precision=precision, scale=scale)
        if word in ("FLOAT", "REAL"):
            return sqltypes.SqlType(word)
        if word == "DOUBLE":
            self.accept_keyword("PRECISION")
            return sqltypes.SqlType("DOUBLE")
        if word in ("CHAR", "CHARACTER"):
            if self.accept_keyword("VARYING"):
                word = "VARCHAR"
            length = None
            if self.accept_punct("("):
                length = int(self.advance().value)
                self.expect_punct(")")
            return sqltypes.SqlType(word if word != "CHARACTER" else "CHAR", length=length)
        if word == "VARCHAR":
            length = None
            if self.accept_punct("("):
                length = int(self.advance().value)
                self.expect_punct(")")
            return sqltypes.SqlType("VARCHAR", length=length)
        if word == "DATE":
            return sqltypes.SqlType("DATE")
        if word == "BOOLEAN":
            return sqltypes.SqlType("BOOLEAN")
        raise self.error(f"unsupported type {word}")

    # -- expressions ----------------------------------------------------

    def expression(self) -> ast.Expression:
        return self.or_expr()

    def or_expr(self) -> ast.Expression:
        left = self.and_expr()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp(op="OR", left=left, right=self.and_expr())
        return left

    def and_expr(self) -> ast.Expression:
        left = self.not_expr()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp(op="AND", left=left, right=self.not_expr())
        return left

    def not_expr(self) -> ast.Expression:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp(op="NOT", operand=self.not_expr())
        return self.predicate()

    def predicate(self) -> ast.Expression:
        if self.peek().is_keyword("EXISTS"):
            self.advance()
            self.expect_punct("(")
            select = self.select_statement()
            self.expect_punct(")")
            return ast.ExistsPredicate(subquery=select)
        left = self.additive()
        negated = False
        if self.peek().is_keyword("NOT") and self.peek(1).is_keyword(
            "IN", "BETWEEN", "LIKE"
        ):
            self.advance()
            negated = True
        token = self.peek()
        if token.is_keyword("IS"):
            self.advance()
            neg = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNullPredicate(expr=left, negated=neg)
        if token.is_keyword("BETWEEN") or (negated and token.is_keyword("BETWEEN")):
            pass
        if self.accept_keyword("BETWEEN"):
            low = self.additive()
            self.expect_keyword("AND")
            high = self.additive()
            return ast.BetweenPredicate(expr=left, low=low, high=high, negated=negated)
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            if self.peek().is_keyword("SELECT"):
                select = self.select_statement()
                self.expect_punct(")")
                return ast.InPredicate(expr=left, subquery=select, negated=negated)
            items = [self.expression()]
            while self.accept_punct(","):
                items.append(self.expression())
            self.expect_punct(")")
            return ast.InPredicate(expr=left, items=items, negated=negated)
        if self.accept_keyword("LIKE"):
            pattern = self.additive()
            return ast.LikePredicate(expr=left, pattern=pattern, negated=negated)
        if token.kind is TokenKind.OPERATOR and token.value in _COMPARISON_OPS:
            op = self.advance().value
            if op == "!=":
                op = "<>"
            right = self.additive()
            return ast.BinaryOp(op=op, left=left, right=right)
        return left

    def additive(self) -> ast.Expression:
        left = self.multiplicative()
        while True:
            token = self.peek()
            if token.matches(TokenKind.OPERATOR, "+"):
                self.advance()
                left = ast.BinaryOp(op="+", left=left, right=self.multiplicative())
            elif token.matches(TokenKind.OPERATOR, "-"):
                self.advance()
                left = ast.BinaryOp(op="-", left=left, right=self.multiplicative())
            elif token.matches(TokenKind.OPERATOR, "||"):
                self.advance()
                left = ast.BinaryOp(op="||", left=left, right=self.multiplicative())
            else:
                return left

    def multiplicative(self) -> ast.Expression:
        left = self.unary()
        while True:
            token = self.peek()
            if token.matches(TokenKind.OPERATOR, "*"):
                self.advance()
                left = ast.BinaryOp(op="*", left=left, right=self.unary())
            elif token.matches(TokenKind.OPERATOR, "/"):
                self.advance()
                left = ast.BinaryOp(op="/", left=left, right=self.unary())
            else:
                return left

    def unary(self) -> ast.Expression:
        token = self.peek()
        if token.matches(TokenKind.OPERATOR, "-"):
            self.advance()
            return ast.UnaryOp(op="-", operand=self.unary())
        if token.matches(TokenKind.OPERATOR, "+"):
            self.advance()
            return self.unary()
        return self.primary()

    def primary(self) -> ast.Expression:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(value=float(text))
            return ast.Literal(value=int(text))
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(value=token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(value=Null)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(value=True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(value=False)
        if token.is_keyword("DATE") and self.peek(1).kind is TokenKind.STRING:
            self.advance()
            literal = self.advance()
            return ast.Literal(value=Date.from_iso(literal.value))
        if token.is_keyword("CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP"):
            self.advance()
            return ast.FunctionCall(name="CURRENT_DATE", args=[])
        if token.is_keyword("CAST"):
            self.advance()
            self.expect_punct("(")
            expr = self.expression()
            self.expect_keyword("AS")
            target = self.sql_type()
            self.expect_punct(")")
            return ast.Cast(expr=expr, target=target)
        if token.is_keyword("CASE"):
            return self.case_expression()
        if token.matches(TokenKind.PUNCT, "("):
            self.advance()
            if self.peek().is_keyword("SELECT"):
                select = self.select_statement()
                self.expect_punct(")")
                return ast.ScalarSubquery(select=select)
            expr = self.expression()
            self.expect_punct(")")
            return ast.Parenthesized(expr=expr)
        if token.kind is TokenKind.IDENT or token.is_keyword(
            "DATE", "DATA", "KEY", "INDEX", "FOUND", "CONDITION", "SQL",
            "LEFT", "RIGHT", "DAY",
        ):
            return self.name_or_call()
        raise self.error("expected an expression")

    def case_expression(self) -> ast.CaseExpr:
        self.expect_keyword("CASE")
        operand = None
        if not self.peek().is_keyword("WHEN"):
            operand = self.expression()
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self.accept_keyword("WHEN"):
            when = self.expression()
            self.expect_keyword("THEN")
            then = self.expression()
            whens.append((when, then))
        else_expr = None
        if self.accept_keyword("ELSE"):
            else_expr = self.expression()
        self.expect_keyword("END")
        return ast.CaseExpr(operand=operand, whens=whens, else_expr=else_expr)

    def name_or_call(self) -> ast.Expression:
        name = self.expect_ident()
        if self.peek().matches(TokenKind.PUNCT, "("):
            self.advance()
            if self.peek().matches(TokenKind.OPERATOR, "*"):
                if name.upper() != "COUNT":
                    raise StarArgumentError(f"{name}(*): only COUNT takes *")
                self.advance()
                self.expect_punct(")")
                return ast.FunctionCall(name=name, args=[], star=True)
            distinct = bool(self.accept_keyword("DISTINCT"))
            args = self.call_args()
            return ast.FunctionCall(name=name, args=args, distinct=distinct)
        if self.accept_punct("."):
            column = self.expect_ident()
            return ast.Name(qualifier=name, name=column)
        return ast.Name(qualifier=None, name=name)

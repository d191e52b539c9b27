"""The schema catalog: tables, views, and stored routines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.storage import Table


@dataclass
class Routine:
    """A stored routine: the parsed CREATE FUNCTION / PROCEDURE."""

    kind: str  # "FUNCTION" or "PROCEDURE"
    definition: Union[ast.CreateFunction, ast.CreateProcedure]
    # index of the DATE parameter this function evaluates its reads at,
    # when its installer vouches that the parameter appears only in
    # ``begin <= p AND p < end`` predicates over declared period pairs
    # and as that same argument of nested calls, and that
    # :meth:`Catalog.write_free` holds of everything the statement
    # invoking it reaches.  The interpreter then keeps the function's
    # results per read window (``RoutineInterpreter._reused``).
    window_param: Optional[int] = None
    # the body compiled on this routine's first invocation
    # (``RoutineInterpreter._body``); not part of the routine's identity
    compiled: Any = field(default=None, compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def params(self) -> list[ast.ParamDef]:
        return self.definition.params

    @property
    def returns(self):
        if self.kind == "FUNCTION":
            return self.definition.returns
        return None

    @property
    def is_table_function(self) -> bool:
        return self.kind == "FUNCTION" and isinstance(
            self.definition.returns, ast.RowArrayType
        )


def _tables_named(nodes: list) -> set[str]:
    """Lower-cased names a routine body (its ``nodes``) uses as a table:
    FROM references, DML targets, CREATE / DROP TABLE."""
    names = set()
    for node in nodes:
        if isinstance(node, (ast.TableRef, ast.CreateTable, ast.DropTable)):
            names.add(node.name.lower())
        elif isinstance(node, (ast.Insert, ast.Update, ast.Delete)):
            names.add(node.table.lower())
    return names


class Catalog:
    """Name → object maps with case-insensitive lookup.

    Every mutation logs its inverse through ``txn`` (the owning
    database's transaction manager) so DDL participates in statement
    and transaction rollback, and may be aborted by an armed fault plan
    before it takes effect.
    """

    # default until a Database attaches its TransactionManager
    txn = None

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ast.Select] = {}
        self._routines: dict[str, Routine] = {}
        # bumped on any change that could invalidate compiled plans:
        # add/drop of non-temporary tables, views, and routines.
        # Temporary tables (the stratum's constant-period scratch tables,
        # routine table variables) churn once per sequenced execution and
        # are exempt — plans validate their schema at run time instead.
        self.schema_version = 0

    def _guard(self, site: str, name: str, entry_tag: str, key: str, old: object) -> None:
        """Fault-check then log one catalog mutation's inverse."""
        txn = self.txn
        if txn is None:
            return
        if txn.fault_plan is not None:
            txn.fault_plan.hit(site, name)
        if txn.logging:
            txn.log.append((entry_tag, self, key, old, self.schema_version))

    def _claim_schema(self) -> None:
        """Claim the schema for writing: DDL is not versioned (it becomes
        globally visible on apply), but racing sessions get a 40001."""
        txn = self.txn
        if txn is not None and txn.mvcc.multi:
            txn.mvcc.claim_schema(txn)

    def note_schema_change(self) -> None:
        """Invalidate compiled plans after an out-of-band schema change
        (e.g. the stratum appending timestamp columns for ADD VALIDTIME)."""
        self._claim_schema()
        txn = self.txn
        if txn is not None and txn.logging:
            txn.log.append(("cat_schema", self, self.schema_version))
        self.schema_version += 1

    # -- tables ---------------------------------------------------------

    def add_table(self, table: Table, replace: bool = False) -> None:
        key = table.name.lower()
        if not replace and (key in self._tables or key in self._views):
            raise CatalogError(f"table or view {table.name} already exists")
        if not table.temporary:
            self._claim_schema()
        self._guard("catalog.add_table", table.name, "cat_table", key,
                    self._tables.get(key))
        txn = self.txn
        if txn is not None and txn.wal is not None and not table.temporary:
            txn.wal.record_create_table(table)
        table.txn = self.txn
        self._tables[key] = table
        if not table.temporary:
            self.schema_version += 1

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def drop_table(self, name: str) -> None:
        key = name.lower()
        table = self._tables.get(key)
        if table is None:
            raise CatalogError(f"no such table: {name}")
        if not table.temporary:
            self._claim_schema()
        self._guard("catalog.drop_table", name, "cat_table", key, table)
        txn = self.txn
        if txn is not None and txn.wal is not None and not table.temporary:
            txn.wal.record_drop_table(table.name)
        del self._tables[key]
        if not table.temporary:
            self.schema_version += 1

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    # -- views ----------------------------------------------------------

    def add_view(self, name: str, select: ast.Select, replace: bool = False) -> None:
        key = name.lower()
        if not replace and (key in self._views or key in self._tables):
            raise CatalogError(f"table or view {name} already exists")
        self._claim_schema()
        self._guard("catalog.add_view", name, "cat_view", key, self._views.get(key))
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_view(name, select.to_sql())
        self._views[key] = select
        self.schema_version += 1

    def get_view(self, name: str) -> Optional[ast.Select]:
        return self._views.get(name.lower())

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def drop_view(self, name: str) -> None:
        key = name.lower()
        select = self._views.get(key)
        if select is None:
            raise CatalogError(f"no such view: {name}")
        self._claim_schema()
        self._guard("catalog.drop_view", name, "cat_view", key, select)
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_drop_view(name)
        del self._views[key]
        self.schema_version += 1

    # -- routines -------------------------------------------------------

    def add_routine(self, routine: Routine, replace: bool = False) -> None:
        key = routine.name.lower()
        if not replace and key in self._routines:
            raise CatalogError(f"routine {routine.name} already exists")
        existing = self._routines.get(key)
        # re-installing an identical routine (a cached temporal
        # transform re-running) is not a schema change and must not
        # write-claim the schema — read-only sequenced queries would
        # otherwise conflict with each other
        changed = existing is None or existing.definition is not routine.definition
        if changed:
            self._claim_schema()
        self._guard("catalog.add_routine", routine.name, "cat_routine", key, existing)
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_routine(routine.definition.to_sql())
        self._routines[key] = routine
        if changed:
            self.schema_version += 1

    def get_routine(self, name: str) -> Routine:
        try:
            return self._routines[name.lower()]
        except KeyError:
            raise CatalogError(f"no such routine: {name}") from None

    def has_routine(self, name: str) -> bool:
        return name.lower() in self._routines

    def find_routine(self, key: str) -> Optional[Routine]:
        """The routine under the already lowered ``key``, or None: what a
        compiled call site asks on every call."""
        return self._routines.get(key)

    def write_free(self, *names: str) -> bool:
        """May a result of one of these routines stand in for running it
        again?  True when no routine among ``names`` and those reachable
        from them writes outside its own scratch: no INSERT / UPDATE /
        DELETE but into a row-array variable it declares or a temporary
        table it creates (and drops) that no other of these routines
        names, no other DDL, no statement with a temporal modifier.  The
        one eligibility rule of the routine-result memo, for scalar and
        table functions alike."""
        bodies: dict[str, list] = {}  # routine -> the nodes of its body
        frontier = [name.lower() for name in names]
        while frontier:
            key = frontier.pop()
            routine = self._routines.get(key)
            if routine is None or key in bodies:
                continue  # a built-in function
            bodies[key] = nodes = list(ast.walk(routine.definition.body))
            frontier.extend(
                node.name.lower() for node in nodes
                if isinstance(node, (ast.FunctionCall, ast.CallStatement))
            )
        named = {key: _tables_named(nodes) for key, nodes in bodies.items()}
        for key, nodes in bodies.items():
            elsewhere = set().union(
                *(tables for other, tables in named.items() if other != key)
            )
            scratch = {
                node.name.lower() for node in nodes
                if isinstance(node, ast.CreateTable) and node.temporary
            } - elsewhere
            scratch.update(
                variable.lower() for node in nodes
                if isinstance(node, ast.DeclareVariable) and node.array_type is not None
                for variable in node.names
            )
            for node in nodes:
                if not isinstance(node, ast.Statement):
                    continue
                if getattr(node, "modifier", None) is not None:
                    return False
                if isinstance(node, (ast.Insert, ast.Update, ast.Delete)):
                    if node.table.lower() not in scratch:
                        return False
                elif isinstance(node, (ast.CreateTable, ast.DropTable)):
                    if node.name.lower() not in scratch:
                        return False
                elif not isinstance(node, (ast.Select, ast.PsmStatement)):
                    return False
        return True

    def drop_routine(self, name: str) -> None:
        key = name.lower()
        routine = self._routines.get(key)
        if routine is None:
            raise CatalogError(f"no such routine: {name}")
        self._claim_schema()
        self._guard("catalog.drop_routine", name, "cat_routine", key, routine)
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_drop_routine(name)
        del self._routines[key]
        self.schema_version += 1

    def routines(self) -> list[Routine]:
        return list(self._routines.values())

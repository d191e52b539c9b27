"""The schema catalog: tables, views, and stored routines."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple, Optional, Union

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.storage import Table


@dataclass(frozen=True)
class BodyFacts:
    """What one walk of a routine body (or any other node) finds: the
    names :meth:`Catalog.reach` follows and the local inputs of
    :meth:`Catalog.write_free`.  Names are lower-cased."""

    calls: frozenset  # FunctionCall / CallStatement names, built-ins too
    tables: frozenset  # FROM references and DML targets
    writes: frozenset  # DML targets, CREATE / DROP TABLE names
    temporaries: frozenset  # temporary tables it creates
    row_arrays: frozenset  # row-array variables it declares
    modifier: bool  # a statement carries a temporal modifier
    ddl: bool  # a statement beyond query, DML, PSM, CREATE / DROP TABLE
    cursors: Optional["BodyFacts"]  # of its cursors' selects, if it declares any


def body_facts(*nodes: ast.Node) -> BodyFacts:
    """The :class:`BodyFacts` of ``nodes``, in one walk of each."""
    calls, tables, writes, temporaries, row_arrays = set(), set(), set(), set(), set()
    modifier = ddl = False
    cursors = []
    for node in (child for root in nodes for child in ast.walk(root)):
        if isinstance(node, (ast.FunctionCall, ast.CallStatement)):
            calls.add(node.name.lower())
        elif isinstance(node, ast.TableRef):
            tables.add(node.name.lower())
        if not isinstance(node, ast.Statement):
            continue
        modifier = modifier or node.modifier is not None
        if isinstance(node, (ast.Insert, ast.Update, ast.Delete)):
            tables.add(node.table.lower())
            writes.add(node.table.lower())
        elif isinstance(node, (ast.CreateTable, ast.DropTable)):
            writes.add(node.name.lower())
            if isinstance(node, ast.CreateTable) and node.temporary:
                temporaries.add(node.name.lower())
        elif isinstance(node, ast.DeclareVariable) and node.array_type is not None:
            row_arrays.update(variable.lower() for variable in node.names)
        elif isinstance(node, ast.DeclareCursor):
            cursors.append(node.select)
        elif not isinstance(node, (ast.Select, ast.PsmStatement)):
            ddl = True
    return BodyFacts(
        frozenset(calls), frozenset(tables), frozenset(writes),
        frozenset(temporaries), frozenset(row_arrays), modifier, ddl,
        body_facts(*cursors) if cursors else None,
    )


def routine_facts(routine: "Routine") -> BodyFacts:
    """The facts of a routine's body: built once per :class:`Routine`."""
    return body_facts(routine.definition.body)


@dataclass
class Routine:
    """A stored routine: the parsed CREATE FUNCTION / PROCEDURE.

    A definition is not mutated once added, so what is derived from it —
    ``compiled``, ``facts`` — is derived once."""

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

    @cached_property
    def facts(self) -> BodyFacts:
        """The body's facts, walked on first need (not part of the
        routine's identity)."""
        return routine_facts(self)

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


class Reach(NamedTuple):
    """What a statement reaches through the routine call graph."""

    routines: dict  # lower-cased name -> Routine, in breadth-first order
    tables: set  # every table it or those routines name (lower-cased)


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
        # per name, the schema version its last change left — tables and
        # views share one namespace, routines have their own.  Undoing a
        # change stamps the name again, so neither ever goes backwards.
        self._relation_stamps: dict[str, int] = {}
        self._routine_stamps: dict[str, int] = {}

    def _guard(
        self, site: str, name: str, objects: dict, stamps: Optional[dict],
        key: str, old: object,
    ) -> None:
        """Fault-check then log one catalog mutation's inverse: put
        ``old`` back under ``key`` in ``objects`` and, unless the change
        is exempt from a stamp (``stamps`` None), stamp the name."""
        txn = self.txn
        if txn is None:
            return
        if txn.fault_plan is not None:
            txn.fault_plan.hit(site, name)
        if txn.logging:
            txn.log.append(("cat", self, objects, stamps, key, old))

    def _claim_schema(self) -> None:
        """Claim the schema for writing: DDL is not versioned (it becomes
        globally visible on apply), but racing sessions get a 40001."""
        txn = self.txn
        if txn is not None and txn.mvcc.multi:
            txn.mvcc.claim_schema(txn)

    def note_schema_change(self, name: str) -> None:
        """Invalidate what was compiled against table ``name`` after an
        out-of-band change to its shape (the stratum appending timestamp
        columns for ADD VALIDTIME)."""
        self._claim_schema()
        txn = self.txn
        if txn is not None and txn.logging:
            txn.log.append(("cat_stamp", self, name.lower()))
        self._stamp(self._relation_stamps, name.lower())

    def _stamp(self, stamps: dict, key: str) -> None:
        """Move the schema version for a change to ``key``."""
        self.schema_version += 1
        stamps[key] = self.schema_version

    def unchanged_since(self, stamp: int, root: ast.Node) -> bool:
        """Does everything ``root`` reaches still read as it did at schema
        version ``stamp``?  Walks from ``root`` through view bodies and
        :attr:`Routine.facts` in the catalog as it is now, and is False
        as soon as a name met — one that resolves to nothing included: a
        routine created under it shadows a built-in — changed after
        ``stamp``.  The root's names are its own; a view or routine
        unchanged since ``stamp`` has the body it had then, so this walk
        meets exactly the names a walk at ``stamp`` would have met."""
        relations: set[str] = set()
        calls: set[str] = set()
        pending = [body_facts(root)]
        while pending:
            facts = pending.pop()
            for name in (facts.tables | facts.writes) - relations:
                if self._relation_stamps.get(name, 0) > stamp:
                    return False
                relations.add(name)
                view = self._views.get(name)
                if view is not None:
                    pending.append(body_facts(view))
            for name in facts.calls - calls:
                if self._routine_stamps.get(name, 0) > stamp:
                    return False
                calls.add(name)
                routine = self._routines.get(name)
                if routine is not None:
                    pending.append(routine.facts)
        return True

    # -- tables ---------------------------------------------------------

    def add_table(self, table: Table, replace: bool = False) -> None:
        key = table.name.lower()
        if not replace and (key in self._tables or key in self._views):
            raise CatalogError(f"table or view {table.name} already exists")
        if not table.temporary:
            self._claim_schema()
        # temporary tables are exempt from stamps (see ``schema_version``)
        stamps = None if table.temporary else self._relation_stamps
        self._guard("catalog.add_table", table.name, self._tables, stamps, key,
                    self._tables.get(key))
        txn = self.txn
        if txn is not None and txn.wal is not None and not table.temporary:
            txn.wal.record_create_table(table)
        table.txn = self.txn
        self._tables[key] = table
        if not table.temporary:
            self._stamp(self._relation_stamps, key)

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
        stamps = None if table.temporary else self._relation_stamps
        self._guard("catalog.drop_table", name, self._tables, stamps, key, table)
        txn = self.txn
        if txn is not None and txn.wal is not None and not table.temporary:
            txn.wal.record_drop_table(table.name)
        del self._tables[key]
        if not table.temporary:
            self._stamp(self._relation_stamps, key)

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    # -- views ----------------------------------------------------------

    def add_view(self, name: str, select: ast.Select, replace: bool = False) -> None:
        key = name.lower()
        if not replace and (key in self._views or key in self._tables):
            raise CatalogError(f"table or view {name} already exists")
        self._claim_schema()
        self._guard("catalog.add_view", name, self._views, self._relation_stamps,
                    key, self._views.get(key))
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_view(name, select.to_sql())
        self._views[key] = select
        self._stamp(self._relation_stamps, key)

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
        self._guard("catalog.drop_view", name, self._views, self._relation_stamps,
                    key, select)
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_drop_view(name)
        del self._views[key]
        self._stamp(self._relation_stamps, key)

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
        self._guard("catalog.add_routine", routine.name, self._routines,
                    self._routine_stamps if changed else None, key, existing)
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_routine(routine.definition.to_sql())
        self._routines[key] = routine
        if changed:
            self._stamp(self._routine_stamps, key)

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

    def reach(self, *roots: Union[ast.Node, str, BodyFacts]) -> Reach:
        """The stored routines ``roots`` reach through calls — breadth
        first, each level in name order — and the tables they all name.
        A node root is walked once; a name stands for that stored
        routine; after that only :attr:`Routine.facts` are read."""
        calls: set[str] = set()
        tables: set[str] = set()
        for root in roots:
            if isinstance(root, str):
                calls.add(root.lower())
                continue
            facts = root if isinstance(root, BodyFacts) else body_facts(root)
            calls |= facts.calls
            tables |= facts.tables
        routines: dict[str, Routine] = {}
        frontier = deque(sorted(calls))
        while frontier:
            key = frontier.popleft()
            routine = None if key in routines else self.find_routine(key)
            if routine is None:
                continue  # seen, or a built-in function
            routines[key] = routine
            tables |= routine.facts.tables
            frontier.extend(sorted(routine.facts.calls - routines.keys()))
        return Reach(routines, tables)

    def write_free(self, *names: str) -> bool:
        """May a result of one of these routines stand in for running it
        again?  True when no routine among ``names`` and those reachable
        from them writes outside its own scratch: no INSERT / UPDATE /
        DELETE but into a row-array variable it declares or a temporary
        table it creates (and drops) that no other of these routines
        names, no other DDL, no statement with a temporal modifier.  The
        one eligibility rule of the routine-result memo, for scalar and
        table functions alike."""
        facts = [routine.facts for routine in self.reach(*names).routines.values()]
        named = [own.tables | own.writes for own in facts]
        for index, own in enumerate(facts):
            if own.modifier or own.ddl:
                return False
            elsewhere = set().union(*named[:index], *named[index + 1:])
            if not own.writes <= (own.temporaries - elsewhere) | own.row_arrays:
                return False
        return True

    def drop_routine(self, name: str) -> None:
        key = name.lower()
        routine = self._routines.get(key)
        if routine is None:
            raise CatalogError(f"no such routine: {name}")
        self._claim_schema()
        self._guard("catalog.drop_routine", name, self._routines,
                    self._routine_stamps, key, routine)
        txn = self.txn
        if txn is not None and txn.wal is not None:
            txn.wal.record_drop_routine(name)
        del self._routines[key]
        self._stamp(self._routine_stamps, key)

    def routines(self) -> list[Routine]:
        return list(self._routines.values())
